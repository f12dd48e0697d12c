"""Verdict vectors: a frozen table of rule-by-rule expectations.

Every rejection rule in the transfer protocol appears here with at least
one vector, alongside accepted vectors for each operation. The expected
verdicts are written out by hand in ``CASES`` rather than captured from a
run, so regenerating the file can never silently bless a regression: the
engine either reproduces the documented verdict or the check fails.

State-layer cases call the token rules directly. World-layer cases are
scenario fragments: an honest prefix shared by several cases, then the
step under test, often carrying a ``tamper`` value. ``run_case`` runs the
fragment through the scenario runner and reads the verdict of the pinned
step, so these cases also pass the accountant, the atomicity check and the
replay probes; any finding of theirs makes the case a mismatch.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .encoding import U64_MAX, canonical_digest
from .harness import Runner
from .hashing import hash_bytes
from .keys import KeyPair
from .messages import MSG_TYPE_TOKEN_TRANSFER, CscpMessage, message_digest
from .scenario import parse_scenario
from .tokens import MittoState, TokenNameRegistry
from .verdict import Verdict

FORMAT = 1
FILE_NAME = "vectors.json"
_SEED = 1405


@dataclass(frozen=True)
class VectorCase:
    """One expectation. A state-layer case has ``run``; a world-layer case
    has a ``scenario`` fragment and the index of the ``step`` it pins."""

    id: str
    op: str
    layer: str
    description: str
    expect: dict
    run: Callable[[], Verdict] | None = None
    scenario: dict | None = None
    step: int | None = None


def _actor(name: str) -> KeyPair:
    return KeyPair.from_label("vector-actor", _SEED, name)


def _accepted() -> dict:
    return {"accepted": True, "reason": "Accepted"}


def _rejected(reason: str, rule: str | None = None) -> dict:
    out = {"accepted": False, "reason": reason}
    if rule is not None:
        out["rule"] = rule
    return out


def _rule(rule: str) -> dict:
    return _rejected("HandlerRejected", rule)


# -- state-layer scaffolding -----------------------------------------------------


def _pair() -> SimpleNamespace:
    """Two token ledgers sharing a name registry, with stock on the first."""
    registry = TokenNameRegistry()
    p = SimpleNamespace(
        home=MittoState(sc_id=1, registry=registry),
        away=MittoState(sc_id=2, registry=registry),
        alice=_actor("alice"),
        bob=_actor("bob"),
        mallory=_actor("mallory"),
    )
    p.tok = p.home.issue("TOK", True, p.alice.public, hash_bytes(b"TOK"), amount=100)
    p.art = p.home.issue("ART", False, p.alice.public, hash_bytes(b"ART"), token_id=5)
    return p


def _msg(instance, sending: int, receiving: int, sender, receiver, **overrides) -> CscpMessage:
    fields = dict(
        sending_sc_id=sending,
        receiving_sc_id=receiving,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=sender.public,
        receiver_id=receiver.public,
        payload_hash=canonical_digest(instance),
    )
    fields.update(overrides)
    return CscpMessage(**fields)


def _send_verdict(state: MittoState, instance, message, signer) -> Verdict:
    rule = state.validate_send(instance, message, signer.sign(message_digest(message)))
    return Verdict.ok() if rule is None else Verdict.rejected("HandlerRejected", rule=rule)


def _redeem_verdict(state: MittoState, instance, message, signer) -> Verdict:
    rule = state.validate_redeem(instance, message, signer.sign(message_digest(message)))
    return Verdict.ok() if rule is None else Verdict.rejected("HandlerRejected", rule=rule)


def _arrived_pair() -> SimpleNamespace:
    """Pair where 40 TOK have properly moved home -> away (bob holds them)."""
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    msg = _msg(part, 1, 2, p.alice, p.bob)
    assert p.home.validate_send(part, msg, p.alice.sign(message_digest(msg))) is None
    p.home.apply_send(part, msg)
    p.away.apply_redeem(part, msg)
    p.sent = part
    p.foreign = next(iter(p.away.s_tks.values()))
    return p


def _return_msg(p: SimpleNamespace, **overrides) -> tuple:
    """Bob returns his foreign TOK from away to the issuer."""
    message = _msg(p.foreign, 2, 1, p.bob, p.alice, **overrides)
    return p.foreign, message


# -- state-layer send cases --------------------------------------------------------


def _send_accept_native() -> Verdict:
    p = _pair()
    return _send_verdict(p.home, p.tok, _msg(p.tok, 1, 2, p.alice, p.bob), p.alice)


def _send_accept_return() -> Verdict:
    p = _arrived_pair()
    instance, message = _return_msg(p)
    return _send_verdict(p.away, instance, message, p.bob)


def _send_1() -> Verdict:
    p = _pair()
    ghost = replace(p.tok, amount=7)
    return _send_verdict(p.home, ghost, _msg(ghost, 1, 2, p.alice, p.bob), p.alice)


def _send_2() -> Verdict:
    p = _arrived_pair()
    message = _msg(p.foreign, 2, 3, p.bob, p.mallory)
    return _send_verdict(p.away, p.foreign, message, p.bob)


def _send_3a() -> Verdict:
    p = _pair()
    return _send_verdict(p.home, p.tok, _msg(p.tok, 9, 2, p.alice, p.bob), p.alice)


def _send_3b() -> Verdict:
    p = _pair()
    return _send_verdict(p.home, p.tok, _msg(p.tok, 1, 1, p.alice, p.bob), p.alice)


def _send_3c() -> Verdict:
    p = _pair()
    return _send_verdict(p.home, p.tok, _msg(p.tok, 1, 2, p.alice, p.bob, msg_type=99), p.alice)


def _send_3d() -> Verdict:
    p = _pair()
    message = _msg(p.tok, 1, 2, p.mallory, p.bob)
    return _send_verdict(p.home, p.tok, message, p.mallory)


def _send_3e() -> Verdict:
    p = _pair()
    message = _msg(p.tok, 1, 2, p.alice, p.bob, payload_hash=hash_bytes(b"lie"))
    return _send_verdict(p.home, p.tok, message, p.alice)


def _send_4() -> Verdict:
    p = _pair()
    return _send_verdict(p.home, p.tok, _msg(p.tok, 1, 2, p.alice, p.bob), p.mallory)


def _send_5() -> Verdict:
    p = _pair()
    first, second = (
        p.home.issue("BIG", True, p.alice.public, hash_bytes(b"BIG%d" % i), amount=U64_MAX) for i in range(2)
    )
    p.home.apply_send(first, _msg(first, 1, 2, p.alice, p.bob))
    return _send_verdict(p.home, second, _msg(second, 1, 2, p.alice, p.bob), p.alice)


# -- state-layer redeem cases -------------------------------------------------------


def _redeem_accept_foreign() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 2, p.alice, p.bob)
    p.home.apply_send(part, message)
    return _redeem_verdict(p.away, part, message, p.alice)


def _redeem_accept_return() -> Verdict:
    p = _arrived_pair()
    instance, message = _return_msg(p)
    p.away.apply_send(instance, message)
    return _redeem_verdict(p.home, instance, message, p.bob)


def _redeem_accept_nft_return() -> Verdict:
    p = _pair()
    msg_out = _msg(p.art, 1, 2, p.alice, p.bob)
    p.home.apply_send(p.art, msg_out)
    p.away.apply_redeem(p.art, msg_out)
    foreign = next(iter(p.away.s_tks.values()))
    back = _msg(foreign, 2, 1, p.bob, p.alice)
    p.away.apply_send(foreign, back)
    return _redeem_verdict(p.home, foreign, back, p.bob)


def _redeem_1() -> Verdict:
    p = _arrived_pair()
    stranger = replace(p.foreign, issuer_sc_id=9)
    message = _msg(stranger, 2, 1, p.bob, p.alice)
    return _redeem_verdict(p.home, stranger, message, p.bob)


def _redeem_2a_missing() -> Verdict:
    p = _pair()
    phantom = replace(p.tok, owner=p.mallory.public, amount=10)
    message = _msg(phantom, 3, 1, p.mallory, p.alice)
    return _redeem_verdict(p.home, phantom, message, p.mallory)


def _redeem_2a_insufficient() -> Verdict:
    p = _arrived_pair()
    inflated = replace(p.foreign, amount=75)
    message = _msg(inflated, 2, 1, p.bob, p.alice)
    return _redeem_verdict(p.home, inflated, message, p.bob)


def _redeem_2b_missing() -> Verdict:
    p = _pair()
    phantom = replace(p.art, owner=p.mallory.public)
    message = _msg(phantom, 2, 1, p.mallory, p.alice)
    return _redeem_verdict(p.home, phantom, message, p.mallory)


def _redeem_2b_wrong_counterparty() -> Verdict:
    p = _pair()
    msg_out = _msg(p.art, 1, 2, p.alice, p.bob)
    p.home.apply_send(p.art, msg_out)
    claimed = replace(p.art, owner=p.mallory.public)
    message = _msg(claimed, 3, 1, p.mallory, p.alice)
    return _redeem_verdict(p.home, claimed, message, p.mallory)


def _redeem_3() -> Verdict:
    p = _pair()
    msg_out = _msg(p.art, 1, 2, p.alice, p.bob)
    p.home.apply_send(p.art, msg_out)
    # A prior fraud left a live copy of the sent piece in the ledger; the
    # honest-looking return must still be refused.
    p.home.s_tks[canonical_digest(p.art)] = p.art
    message = _msg(p.art, 2, 1, p.alice, p.alice)
    return _redeem_verdict(p.home, p.art, message, p.alice)


def _redeem_4a() -> Verdict:
    p = _pair()
    p.home._record_out("TOK", 1, 50, None)
    claimed = replace(p.tok, amount=50, owner=p.bob.public)
    message = _msg(claimed, 1, 2, p.bob, p.alice)
    return _redeem_verdict(p.home, claimed, message, p.bob)


def _redeem_4b() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 3, p.alice, p.bob)
    return _redeem_verdict(p.away, part, message, p.alice)


def _redeem_4c() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 2, p.alice, p.bob, msg_type=99)
    return _redeem_verdict(p.away, part, message, p.alice)


def _redeem_4d() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 2, p.mallory, p.bob)
    return _redeem_verdict(p.away, part, message, p.mallory)


def _redeem_4e() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 2, p.alice, p.bob, payload_hash=hash_bytes(b"lie"))
    return _redeem_verdict(p.away, part, message, p.alice)


def _redeem_5() -> Verdict:
    p = _pair()
    part, _ = p.home.split(canonical_digest(p.tok), 40)
    message = _msg(part, 1, 2, p.alice, p.bob)
    return _redeem_verdict(p.away, part, message, p.mallory)


def _redeem_8() -> Verdict:
    p = _pair()
    # A fungible ART of chain 3's own: ART is chain 1's NFT in the registry.
    fabricated = replace(p.tok, token_name="ART", issuer_sc_id=3, owner=p.mallory.public, amount=5)
    message = _msg(fabricated, 3, 2, p.mallory, p.bob)
    return _redeem_verdict(p.away, fabricated, message, p.mallory)


# -- world-layer fragments -------------------------------------------------------

#: Three live chains; 60 WBT moved alpha -> beta and redeemed there, another
#: 20 committed in the same epoch but left unredeemed for evidence cases.
_WBT_WORLD = (
    [
        {"label": "alpha", "epoch_length": 2,
         "issuances": [{"name": "WBT", "fungible": True, "amount": 100, "owner": "alice"}]},
        {"label": "beta", "epoch_length": 2},
        {"label": "gamma", "epoch_length": 2},
    ],
    [
        {"op": "send", "id": "sent60", "from": "alpha", "to": "beta", "name": "WBT", "amount": 60,
         "owner": "alice", "receiver": "bob"},
        {"op": "send", "id": "sent20", "from": "alpha", "to": "beta", "name": "WBT", "amount": 20,
         "owner": "alice", "receiver": "bob"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "redeem", "send": "sent60"},
    ],
)

#: Alpha holds 50 KEEP, certifies one epoch, then goes silent and ceases.
_CEASED_WORLD = (
    [
        {"label": "alpha", "epoch_length": 2,
         "issuances": [{"name": "KEEP", "fungible": True, "amount": 50, "owner": "alice"}]},
        {"label": "beta", "epoch_length": 2},
    ],
    [
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch", "chains": ["beta"]},
        {"op": "cease_by_silence", "chain": "alpha"},
    ],
)

#: A byzantine chain: it commits sends that no check has seen.
_MAL = {"label": "mal", "epoch_length": 2, "byzantine": True}

#: Alice holds the NFT ART 0 on alpha.
_ART_ALPHA = {"label": "alpha", "epoch_length": 2,
              "issuances": [{"name": "ART", "fungible": False, "token_id": 0, "owner": "alice"}]}

#: Alpha issues the NFT ART; byzantine mal commits a send of a fungible ART
#: it claims to issue itself, addressed to bob on beta.
_FABRICATED_WORLD = (
    [_ART_ALPHA, {"label": "beta", "epoch_length": 2}, _MAL],
    [
        {"op": "fabricate_send", "id": "fake", "from": "mal", "to": "beta", "name": "ART", "fungible": True,
         "amount": 5, "issuer": "mal", "owner": "eve", "receiver": "bob"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 2},
    ],
)

#: One chain whose first epoch is still open.
_EARLY_WORLD = ([{"label": "early", "epoch_length": 4}], [])

#: Alice holds fungible BIG on alpha as two parcels, of 2^64-1 units and of 1.
_BIG_WORLD = (
    [
        {"label": "alpha", "epoch_length": 2,
         "issuances": [{"name": "BIG", "fungible": True, "amount": amount, "owner": "alice"}
                       for amount in (U64_MAX, 1)]},
        {"label": "beta", "epoch_length": 2},
    ],
    [],
)

#: The chains of ``_WBT_WORLD``, and mal.
_WBT_AND_MAL = [*_WBT_WORLD[0], _MAL]
_FAKE_WBT = {"name": "WBT", "fungible": True, "amount": 5, "issuer": "alpha"}
_FAKE_ART = {"name": "ART", "fungible": False, "issuer": "alpha"}


def _world_case(id: str, op: str, description: str, expect: dict, world: tuple, *steps: dict) -> VectorCase:
    """A world-layer case pinning the verdict of the fragment's last step."""
    chains, prefix = world
    fragment = {"name": id, "seed": _SEED, "chains": chains, "steps": [*prefix, *steps]}
    return VectorCase(id, op, "world", description, expect, scenario=fragment, step=len(fragment["steps"]) - 1)


def _forged(chains: list, **fabricated) -> tuple:
    """A world of ``chains`` in which byzantine mal commits, in a finalized
    epoch, the send ``fake`` of a token it makes up, from eve to bob."""
    step = {"op": "fabricate_send", "id": "fake", "from": "mal", "owner": "eve", "receiver": "bob", **fabricated}
    return chains, [step, *_FABRICATED_WORLD[1][1:]]


_REDEEM_FAKE = {"op": "redeem", "send": "fake"}


def _big_send(amount: int) -> dict:
    return {"op": "send", "from": "alpha", "to": "beta", "name": "BIG", "amount": amount, "owner": "alice",
            "receiver": "bob"}


def _bob_send(to: str, **extra) -> dict:
    """Bob moves the WBT he redeemed on beta."""
    return {"op": "send", "from": "beta", "to": to, "name": "WBT", "owner": "bob", "receiver": "alice", **extra}


def _redeem20(**extra) -> dict:
    return {"op": "redeem", "send": "sent20", **extra}


def _close(chain: str, **extra) -> dict:
    return {"op": "close_epoch", "chains": [chain], **extra}


def _keep_csw(id: str = "keep", **extra) -> dict:
    """Alice withdraws her KEEP from ceased alpha towards beta."""
    return {"op": "csw", "id": id, "mode": "held", "chain": "alpha", "name": "KEEP", "owner": "alice",
            "target": "beta", "receiver": "alice", **extra}


CASES: tuple[VectorCase, ...] = (
    VectorCase("send-accept-native", "send", "state",
               "issuer-held tokens leave for another chain", _accepted(), _send_accept_native),
    VectorCase("send-accept-return", "send", "state",
               "foreign tokens head back to their issuer", _accepted(), _send_accept_return),
    VectorCase("send-1-not-held", "send", "state",
               "instance absent from the sending ledger", _rule("send-1"), _send_1),
    VectorCase("send-2-foreign-to-third", "send", "state",
               "foreign tokens aimed at a chain that is not the issuer", _rule("send-2"), _send_2),
    VectorCase("send-3a-wrong-origin", "send", "state",
               "message names a different sending chain", _rule("send-3a"), _send_3a),
    VectorCase("send-3b-self-target", "send", "state",
               "message targets the sending chain itself", _rule("send-3b"), _send_3b),
    VectorCase("send-3c-wrong-type", "send", "state",
               "message type is not token-transfer", _rule("send-3c"), _send_3c),
    VectorCase("send-3d-sender-not-owner", "send", "state",
               "message sender differs from the instance owner", _rule("send-3d"), _send_3d),
    VectorCase("send-3e-payload-mismatch", "send", "state",
               "payload hash does not commit to the instance", _rule("send-3e"), _send_3e),
    VectorCase("send-4-bad-owner-signature", "send", "state",
               "signature was not produced by the owner", _rule("send-4"), _send_4),
    VectorCase("send-5-sent-record-overflow", "send", "state",
               "merged sent record would exceed u64 units", _rule("send-5"), _send_5),

    VectorCase("redeem-accept-foreign", "redeem", "state",
               "committed arrival minted on the receiving chain", _accepted(), _redeem_accept_foreign),
    VectorCase("redeem-accept-return", "redeem", "state",
               "issuer honors a return covered by its sent record", _accepted(), _redeem_accept_return),
    VectorCase("redeem-accept-nft-return", "redeem", "state",
               "issuer honors an NFT return and retires the record", _accepted(), _redeem_accept_nft_return),
    VectorCase("redeem-1-unknown-issuer", "redeem", "state",
               "instance issued by neither the sending chain nor this one", _rule("redeem-1"), _redeem_1),
    VectorCase("redeem-2a-no-record", "redeem", "state",
               "claimed return from a chain never sent to", _rule("redeem-2a"), _redeem_2a_missing),
    VectorCase("redeem-2a-over-record", "redeem", "state",
               "claimed return exceeds the recorded amount", _rule("redeem-2a"), _redeem_2a_insufficient),
    VectorCase("redeem-2b-no-record", "redeem", "state",
               "NFT return with no sent record", _rule("redeem-2b"), _redeem_2b_missing),
    VectorCase("redeem-2b-wrong-counterparty", "redeem", "state",
               "NFT return claimed from the wrong chain", _rule("redeem-2b"), _redeem_2b_wrong_counterparty),
    VectorCase("redeem-3-already-live", "redeem", "state",
               "NFT return while a copy is live on the ledger", _rule("redeem-3"), _redeem_3),
    VectorCase("redeem-4a-self-origin", "redeem", "state",
               "message claims this chain as its own origin", _rule("redeem-4a"), _redeem_4a),
    VectorCase("redeem-4b-wrong-destination", "redeem", "state",
               "message addressed to a different chain", _rule("redeem-4b"), _redeem_4b),
    VectorCase("redeem-4c-wrong-type", "redeem", "state",
               "message type is not token-transfer", _rule("redeem-4c"), _redeem_4c),
    VectorCase("redeem-4d-sender-not-owner", "redeem", "state",
               "message sender differs from the instance owner", _rule("redeem-4d"), _redeem_4d),
    VectorCase("redeem-4e-payload-mismatch", "redeem", "state",
               "payload hash does not commit to the instance", _rule("redeem-4e"), _redeem_4e),
    VectorCase("redeem-5-bad-sender-signature", "redeem", "state",
               "sender signature fails verification", _rule("redeem-5"), _redeem_5),
    VectorCase("redeem-8-name-registry", "redeem", "state",
               "instance disagrees with its name's registry entry", _rule("redeem-8"), _redeem_8),

    _world_case("world-send-accept", "send", "full-chain send accepted into the outbox", _accepted(),
                _WBT_WORLD, _bob_send("alpha")),
    _world_case("world-send-bad-signature", "send", "message signature does not verify for the named sender",
                _rejected("BadSignature"), _WBT_WORLD, _bob_send("alpha", tamper="wrong_signer")),
    _world_case("world-send-wrong-sender", "send", "message submitted to a chain that is not its origin",
                _rejected("WrongSender"), _WBT_WORLD, _bob_send("alpha", tamper="wrong_chain")),
    _world_case("world-send-payload-mismatch", "send", "attached payload does not hash to the committed value",
                _rejected("PayloadMismatch"), _WBT_WORLD, _bob_send("alpha", tamper="payload_mismatch")),
    _world_case("world-send-self", "send", "send addressed to the origin chain itself", _rejected("SelfSend"),
                _WBT_WORLD, _bob_send("beta", expect=_rejected("SelfSend"))),
    _world_case("world-send-unregistered-type", "send", "no handler registered for the message type",
                _rule("unregistered-msg-type"), _WBT_WORLD, _bob_send("alpha", tamper="unregistered_type")),
    _world_case("world-send-malformed-payload", "send", "payload bytes do not decode as a token instance",
                _rule("malformed-payload"), _WBT_WORLD, _bob_send("alpha", tamper="malformed_payload")),
    _world_case("world-send-foreign-to-third", "send", "full-chain enforcement of the issuer-routing rule",
                _rule("send-2"), _WBT_WORLD, _bob_send("gamma", receiver="mallory")),
    _world_case("world-send-1-unheld-instance", "send", "owner-signed send of an instance the chain does not hold",
                _rule("send-1"), _WBT_WORLD, _bob_send("alpha", tamper="unheld_instance")),
    _world_case("world-send-3d-sender-not-owner", "send", "message names and is signed by a sender not the owner",
                _rule("send-3d"), _WBT_WORLD, _bob_send("alpha", tamper="sender_not_owner")),
    _world_case("world-send-5-sent-record-overflow", "send", "sent record would exceed u64 units",
                _rule("send-5"), _BIG_WORLD, _big_send(U64_MAX), _big_send(1)),

    _world_case("world-redeem-accept", "redeem", "committed message redeemed with finalized evidence",
                _accepted(), _WBT_WORLD, _redeem20()),
    _world_case("world-redeem-replay", "redeem", "second redemption of the same message",
                _rejected("AlreadyRedeemed"), _WBT_WORLD, _redeem20(), _redeem20()),
    _world_case("world-redeem-wrong-chain", "redeem", "message redeemed on a chain it was not addressed to",
                _rejected("WrongReceivingChain"), _WBT_WORLD, _redeem20(tamper="wrong_chain")),
    _world_case("world-redeem-6-receiver-auth", "redeem", "receiver authorization signed by someone else",
                _rejected("BadReceiverAuth", "redeem-6"), _WBT_WORLD, _redeem20(tamper="forged_receiver_auth")),
    _world_case("world-redeem-7-tampered-proof", "redeem", "inclusion evidence anchored to the wrong block",
                _rejected("ProofInvalid", "redeem-7"), _WBT_WORLD, _redeem20(tamper="wrong_block")),
    _world_case("world-redeem-8-name-registry", "redeem",
                "fabricated instance under another chain's registered name",
                _rule("redeem-8"), _FABRICATED_WORLD, _REDEEM_FAKE),
    _world_case("world-redeem-1-unknown-issuer", "redeem", "fabricated instance issued by a third chain",
                _rule("redeem-1"), _forged(_WBT_AND_MAL, to="beta", **_FAKE_WBT), _REDEEM_FAKE),
    _world_case("world-redeem-2a-no-record", "redeem", "fabricated return of fungible tokens never sent",
                _rule("redeem-2a"), _forged(_WBT_AND_MAL, to="alpha", **_FAKE_WBT), _REDEEM_FAKE),
    _world_case("world-redeem-2b-no-record", "redeem", "fabricated return of an NFT never sent",
                _rule("redeem-2b"), _forged(_WBT_AND_MAL, to="alpha", token_id=7, **_FAKE_ART), _REDEEM_FAKE),
    _world_case("world-redeem-3-already-live", "redeem", "fabricated return of an NFT the issuer still holds",
                _rule("redeem-3"),
                _forged([{**_ART_ALPHA, "faulty_mode": "no_sent_records"}, _MAL], to="alpha", token_id=0, **_FAKE_ART),
                _REDEEM_FAKE),
    _world_case("world-redeem-4a-self-origin", "redeem", "message a chain committed to itself",
                _rule("redeem-4a"),
                _forged([{**_MAL, "faulty_mode": "no_sent_records"}],
                        to="mal", name="OWN", fungible=False, token_id=1, issuer="mal"),
                _REDEEM_FAKE),
    _world_case("world-redeem-5-forged-sender-sig", "redeem", "send signature replaced by one the sender never made",
                _rule("redeem-5"), _WBT_WORLD, _redeem20(tamper="forged_sender_sig")),

    _world_case("wcert-accept", "wcert", "certificate lands inside its submission window", _accepted(),
                _WBT_WORLD, _close("gamma")),
    _world_case("wcert-wrong-epoch", "wcert", "certificate for an epoch that is not awaited",
                _rejected("WrongEpoch"), _WBT_WORLD, _close("gamma", tamper="wrong_epoch")),
    _world_case("wcert-window-closed", "wcert", "certificate submitted before its window opens",
                _rejected("WindowClosed"), _EARLY_WORLD, _close("early")),
    _world_case("wcert-lower-quality", "wcert", "certificate of equal or lower quality than the pending one",
                _rejected("LowerQuality"), _WBT_WORLD,
                _close("gamma", quality=2), _close("gamma", quality=1, tamper="lower_quality")),
    _world_case("wcert-ceased", "wcert", "certificate for a chain that already ceased",
                _rejected("SidechainCeased"), _CEASED_WORLD, _close("alpha")),
    _world_case("wcert-bad-proof", "wcert", "certificate body altered after proving", _rejected("ProofInvalid"),
                _WBT_WORLD, _close("gamma", tamper="altered_body")),

    _world_case("csw-accept", "csw", "withdrawal from a ceased chain's final state", _accepted(),
                _CEASED_WORLD, _keep_csw()),
    _world_case("csw-active-chain", "csw", "withdrawal attempted while the chain is alive",
                _rejected("SidechainActive"), _WBT_WORLD,
                {"op": "csw", "id": "early", "mode": "held", "chain": "alpha", "name": "WBT", "owner": "alice",
                 "target": "beta", "receiver": "alice"}),
    _world_case("csw-replay", "csw", "second withdrawal with the same nullifier", _rejected("NullifierReused"),
                _CEASED_WORLD, _keep_csw("first"), _keep_csw("again")),
    _world_case("csw-bad-proof", "csw", "withdrawal evidence altered after proving", _rejected("ProofInvalid"),
                _CEASED_WORLD, _keep_csw(tamper="forged_nullifier")),
    _world_case("csw-redeem-accept", "csw_redeem", "withdrawn message redeemed on its destination chain",
                _accepted(), _CEASED_WORLD,
                _keep_csw(), {"op": "advance_mainchain", "blocks": 1}, {"op": "csw_redeem", "withdrawal": "keep"}),
)


def run_case(case: VectorCase) -> dict:
    """The verdict the engine gives a case. A world-layer case also carries
    any runner finding, so a finding can never match an expectation."""
    if case.scenario is None:
        return case.run().to_json()
    report = Runner(parse_scenario(case.scenario, case.id)).run()
    entry = report["steps"][case.step]
    observed = dict(entry["parts"][0] if entry["op"] == "close_epoch" else entry["outcome"])
    observed.pop("chain", None)
    if report["violations"] or report["failure"] is not None:
        observed.update(violations=report["violations"], failure=report["failure"])
    return observed


def emit_vectors(directory: str | Path) -> Path:
    """Write the vector file, refusing if the engine disagrees with the
    hand-written expectations."""
    problems = []
    for case in CASES:
        observed = run_case(case)
        if observed != case.expect:
            problems.append(f"{case.id}: engine produced {observed}, table says {case.expect}")
    if problems:
        raise RuntimeError("refusing to emit vectors:\n" + "\n".join(problems))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / FILE_NAME
    payload = {
        "format": FORMAT,
        "cases": [
            {
                "id": case.id,
                "op": case.op,
                "layer": case.layer,
                "description": case.description,
                "expect": case.expect,
            }
            for case in CASES
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check_vectors(directory: str | Path) -> list[str]:
    """Re-run every case in the file and compare verdicts. Returns the list
    of mismatches; empty means the file is fully reproduced."""
    path = Path(directory) / FILE_NAME
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        return [f"{path}: top level must be an object, got {type(data).__name__}"]
    format_ = data.get("format")
    if type(format_) is not int or format_ != FORMAT:  # true and 1.0 equal 1
        return [f"{path}: unsupported format {format_!r}"]
    entries = data.get("cases", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        return [f"{path}: 'cases' must be a list of objects"]
    by_id = {case.id: case for case in CASES}
    problems = []
    seen = set()
    for entry in entries:
        case = by_id.get(entry.get("id")) if isinstance(entry.get("id"), str) else None
        if case is None:
            problems.append(f"{entry.get('id')}: no such case in this build")
            continue
        seen.add(case.id)
        observed = run_case(case)
        if observed != entry.get("expect"):
            problems.append(
                f"{case.id}: engine produced {observed}, file expects {entry.get('expect')}"
            )
    for case in CASES:
        if case.id not in seen:
            problems.append(f"{case.id}: missing from the vector file")
    return problems
