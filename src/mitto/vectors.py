"""Verdict vectors: a frozen table of rule-by-rule expectations.

Every rejection rule in the transfer protocol appears here with at least
one vector, alongside accepted vectors for each operation. The expected
verdicts are written out by hand in ``CASES`` rather than captured from a
run, so regenerating the file can never silently bless a regression: the
engine either reproduces the documented verdict or the check fails.

State-layer cases call the token rules directly; world-layer cases drive
full chains (settlement chain, certificates, evidence) so the gating that
lives outside the token module is pinned too.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .encoding import U64_MAX, canonical_digest
from .hashing import hash_bytes
from .keys import KeyPair
from .mainchain import STATUS_CEASED, Mainchain
from .messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    CscpMessage,
    RedeemTx,
    SendTx,
    message_digest,
    redeem_auth_digest,
)
from .sidechain import Sidechain
from .tokens import (
    MittoState,
    SentRecord,
    TokenNameRegistry,
    attach_token_ledger,
    make_csw_redeem_tx,
    make_redeem_tx,
    withdraw_native_held,
)
from .verdict import Verdict

FORMAT = 1
FILE_NAME = "vectors.json"
_SEED = 1405


@dataclass(frozen=True)
class VectorCase:
    id: str
    op: str
    layer: str
    description: str
    expect: dict
    run: Callable[[], Verdict]


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
    p.home.s_sent[("f", 1, "TOK")] = SentRecord(
        token_name="TOK", fungibility=True, receiver_sc_id=1, amount=50
    )
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


# -- world-layer scaffolding -----------------------------------------------------


def _world() -> SimpleNamespace:
    """Three live chains; 60 WBT moved and redeemed on beta, another 20
    committed in the same epoch but left unredeemed for evidence cases."""
    w = SimpleNamespace(
        mc=Mainchain(),
        registry=TokenNameRegistry(),
        alice=_actor("alice"),
        bob=_actor("bob"),
        mallory=_actor("mallory"),
    )
    w.chains = {}
    w.states = {}
    for label in ("alpha", "beta", "gamma"):
        chain = Sidechain.create(w.mc, 2, label, seed=_SEED)
        w.chains[label] = chain
        w.states[label] = attach_token_ledger(chain, w.registry)
    w.mc.advance_block()
    w.alpha, w.beta, w.gamma = (w.chains[k] for k in ("alpha", "beta", "gamma"))

    w.states["alpha"].issue("WBT", True, w.alice.public, hash_bytes(b"WBT"), amount=100)
    w.sent60 = _world_send(w, 60)
    w.sent20 = _world_send(w, 20)
    w.mc.advance_blocks(2)
    for chain in w.chains.values():
        cert, verdict = chain.close_epoch()
        assert verdict.accepted, verdict
    w.mc.advance_blocks(2)
    verdict = w.beta.accept_redeem(_world_redeem_tx(w, w.sent60))
    assert verdict.accepted, verdict
    return w


def _world_send(w: SimpleNamespace, amount: int) -> tuple:
    state = w.states["alpha"]
    digest = next(
        d for d, ti in sorted(state.s_tks.items(), key=lambda kv: kv[0].hex())
        if ti.token_name == "WBT" and ti.amount >= amount
    )
    part = state.s_tks[digest] if state.s_tks[digest].amount == amount else state.split(digest, amount)[0]
    message = _msg(part, w.alpha.sc_id, w.beta.sc_id, w.alice, w.bob)
    tx = SendTx(message=message, payload=part.encode(), signature=w.alice.sign(message_digest(message)))
    verdict = w.alpha.accept_send(tx)
    assert verdict.accepted, verdict
    return message, part.encode(), tx.signature


def _world_redeem_tx(w: SimpleNamespace, sent: tuple) -> RedeemTx:
    """Bob's redeem of a send alpha committed in epoch 0."""
    return make_redeem_tx(w.mc, w.alpha, 0, *sent, w.bob)


def _ceased() -> SimpleNamespace:
    """Alpha holds 50 KEEP, certifies one epoch, then goes silent and ceases."""
    w = SimpleNamespace(mc=Mainchain(), registry=TokenNameRegistry(), alice=_actor("alice"))
    w.chains = {}
    w.states = {}
    for label in ("alpha", "beta"):
        chain = Sidechain.create(w.mc, 2, label, seed=_SEED)
        w.chains[label] = chain
        w.states[label] = attach_token_ledger(chain, w.registry)
    w.mc.advance_block()
    w.alpha, w.beta = w.chains["alpha"], w.chains["beta"]
    w.keep = w.states["alpha"].issue("KEEP", True, w.alice.public, hash_bytes(b"KEEP"), amount=50)
    w.mc.advance_blocks(2)
    for chain in w.chains.values():
        _, verdict = chain.close_epoch()
        assert verdict.accepted
    w.mc.advance_blocks(2)
    _, verdict = w.beta.close_epoch()
    assert verdict.accepted
    w.mc.advance_blocks(2)
    assert w.mc.record(w.alpha.sc_id).status == STATUS_CEASED
    return w


def _held_package(w: SimpleNamespace):
    return withdraw_native_held(
        w.alpha, w.alice, canonical_digest(w.keep), w.beta.sc_id, w.alice.public
    )


# -- world-layer cases -------------------------------------------------------------


def _w_send_accept() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.alpha.sc_id, w.bob, w.alice)
    tx = SendTx(message=message, payload=foreign.encode(), signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_bad_sig() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.alpha.sc_id, w.bob, w.alice)
    tx = SendTx(message=message, payload=foreign.encode(), signature=w.mallory.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_wrong_sender() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.alpha.sc_id, w.bob, w.alice)
    tx = SendTx(message=message, payload=foreign.encode(), signature=w.bob.sign(message_digest(message)))
    return w.alpha.accept_send(tx)


def _w_send_payload_mismatch() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.alpha.sc_id, w.bob, w.alice)
    tx = SendTx(message=message, payload=b"other-bytes", signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_self() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.beta.sc_id, w.bob, w.alice)
    tx = SendTx(message=message, payload=foreign.encode(), signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_unregistered_type() -> Verdict:
    w = _world()
    payload = b"opaque"
    message = CscpMessage(
        sending_sc_id=w.beta.sc_id,
        receiving_sc_id=w.alpha.sc_id,
        msg_type=9,
        sender_id=w.bob.public,
        receiver_id=w.alice.public,
        payload_hash=hash_bytes(payload),
    )
    tx = SendTx(message=message, payload=payload, signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_malformed_payload() -> Verdict:
    w = _world()
    payload = b"not-a-token"
    message = CscpMessage(
        sending_sc_id=w.beta.sc_id,
        receiving_sc_id=w.alpha.sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=w.bob.public,
        receiver_id=w.alice.public,
        payload_hash=hash_bytes(payload),
    )
    tx = SendTx(message=message, payload=payload, signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_send_foreign_to_third() -> Verdict:
    w = _world()
    foreign = next(iter(w.states["beta"].s_tks.values()))
    message = _msg(foreign, w.beta.sc_id, w.gamma.sc_id, w.bob, w.mallory)
    tx = SendTx(message=message, payload=foreign.encode(), signature=w.bob.sign(message_digest(message)))
    return w.beta.accept_send(tx)


def _w_redeem_accept() -> Verdict:
    w = _world()
    return w.beta.accept_redeem(_world_redeem_tx(w, w.sent20))


def _w_redeem_replay() -> Verdict:
    w = _world()
    tx = _world_redeem_tx(w, w.sent20)
    assert w.beta.accept_redeem(tx).accepted
    return w.beta.accept_redeem(tx)


def _w_redeem_wrong_chain() -> Verdict:
    w = _world()
    return w.gamma.accept_redeem(_world_redeem_tx(w, w.sent20))


def _w_redeem_receiver_auth() -> Verdict:
    w = _world()
    tx = _world_redeem_tx(w, w.sent20)
    message, payload, _ = w.sent20
    forged = replace(tx, receiver_signature=w.mallory.sign(redeem_auth_digest(message, payload)))
    return w.beta.accept_redeem(forged)


def _w_redeem_tampered_proof() -> Verdict:
    w = _world()
    tx = _world_redeem_tx(w, w.sent20)
    other = w.mc.get_block(1).hash
    forged = replace(tx, proof=replace(tx.proof, block_hash=other))
    return w.beta.accept_redeem(forged)


def _w_wcert_accept() -> Verdict:
    w = _world()
    cert = w.gamma.build_certificate()
    return w.mc.submit_certificate(cert)


def _w_wcert_wrong_epoch() -> Verdict:
    w = _world()
    cert = w.gamma.build_certificate(epoch_id=3)
    return w.mc.submit_certificate(cert)


def _w_wcert_window_closed() -> Verdict:
    mc = Mainchain()
    chain = Sidechain.create(mc, 4, "early", seed=_SEED)
    mc.advance_block()
    cert = chain.build_certificate()
    return mc.submit_certificate(cert)


def _w_wcert_lower_quality() -> Verdict:
    w = _world()
    assert w.mc.submit_certificate(w.gamma.build_certificate(quality=2)).accepted
    return w.mc.submit_certificate(w.gamma.build_certificate(quality=1))


def _w_wcert_ceased() -> Verdict:
    w = _ceased()
    return w.mc.submit_certificate(w.alpha.build_certificate())


def _w_wcert_bad_proof() -> Verdict:
    w = _world()
    cert = w.gamma.build_certificate(quality=1)
    return w.mc.submit_certificate(replace(cert, quality=7))


def _w_csw_accept() -> Verdict:
    w = _ceased()
    return w.mc.submit_csw(_held_package(w).csw)


def _w_csw_active() -> Verdict:
    w = _world()
    keep = w.states["alpha"].issue("KEEP", True, w.alice.public, hash_bytes(b"KEEP"), amount=10)
    _, verdict = w.alpha.close_epoch()
    assert verdict.accepted
    w.mc.advance_blocks(2)
    package = withdraw_native_held(w.alpha, w.alice, canonical_digest(keep), w.beta.sc_id, w.alice.public)
    return w.mc.submit_csw(package.csw)


def _w_csw_replay() -> Verdict:
    w = _ceased()
    csw = _held_package(w).csw
    assert w.mc.submit_csw(csw).accepted
    return w.mc.submit_csw(csw)


def _w_csw_bad_proof() -> Verdict:
    w = _ceased()
    csw = _held_package(w).csw
    return w.mc.submit_csw(replace(csw, nullifier=hash_bytes(b"forged")))


def _w_csw_redeem_accept() -> Verdict:
    w = _ceased()
    package = _held_package(w)
    assert w.mc.submit_csw(package.csw).accepted
    w.mc.advance_block()
    return w.beta.accept_csw_redeem(make_csw_redeem_tx(w.mc, package, w.alice))


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

    VectorCase("world-send-accept", "send", "world",
               "full-chain send accepted into the outbox", _accepted(), _w_send_accept),
    VectorCase("world-send-bad-signature", "send", "world",
               "message signature does not verify for the named sender",
               _rejected("BadSignature"), _w_send_bad_sig),
    VectorCase("world-send-wrong-sender", "send", "world",
               "message submitted to a chain that is not its origin",
               _rejected("WrongSender"), _w_send_wrong_sender),
    VectorCase("world-send-payload-mismatch", "send", "world",
               "attached payload does not hash to the committed value",
               _rejected("PayloadMismatch"), _w_send_payload_mismatch),
    VectorCase("world-send-self", "send", "world",
               "send addressed to the origin chain itself", _rejected("SelfSend"), _w_send_self),
    VectorCase("world-send-unregistered-type", "send", "world",
               "no handler registered for the message type",
               _rule("unregistered-msg-type"), _w_send_unregistered_type),
    VectorCase("world-send-malformed-payload", "send", "world",
               "payload bytes do not decode as a token instance",
               _rule("malformed-payload"), _w_send_malformed_payload),
    VectorCase("world-send-foreign-to-third", "send", "world",
               "full-chain enforcement of the issuer-routing rule",
               _rule("send-2"), _w_send_foreign_to_third),

    VectorCase("world-redeem-accept", "redeem", "world",
               "committed message redeemed with finalized evidence", _accepted(), _w_redeem_accept),
    VectorCase("world-redeem-replay", "redeem", "world",
               "second redemption of the same message", _rejected("AlreadyRedeemed"), _w_redeem_replay),
    VectorCase("world-redeem-wrong-chain", "redeem", "world",
               "message redeemed on a chain it was not addressed to",
               _rejected("WrongReceivingChain"), _w_redeem_wrong_chain),
    VectorCase("world-redeem-6-receiver-auth", "redeem", "world",
               "receiver authorization signed by someone else",
               _rejected("BadReceiverAuth", "redeem-6"), _w_redeem_receiver_auth),
    VectorCase("world-redeem-7-tampered-proof", "redeem", "world",
               "inclusion evidence anchored to the wrong block",
               _rejected("ProofInvalid", "redeem-7"), _w_redeem_tampered_proof),

    VectorCase("wcert-accept", "wcert", "world",
               "certificate lands inside its submission window", _accepted(), _w_wcert_accept),
    VectorCase("wcert-wrong-epoch", "wcert", "world",
               "certificate for an epoch that is not awaited", _rejected("WrongEpoch"), _w_wcert_wrong_epoch),
    VectorCase("wcert-window-closed", "wcert", "world",
               "certificate submitted before its window opens",
               _rejected("WindowClosed"), _w_wcert_window_closed),
    VectorCase("wcert-lower-quality", "wcert", "world",
               "certificate of equal or lower quality than the pending one",
               _rejected("LowerQuality"), _w_wcert_lower_quality),
    VectorCase("wcert-ceased", "wcert", "world",
               "certificate for a chain that already ceased",
               _rejected("SidechainCeased"), _w_wcert_ceased),
    VectorCase("wcert-bad-proof", "wcert", "world",
               "certificate body altered after proving", _rejected("ProofInvalid"), _w_wcert_bad_proof),

    VectorCase("csw-accept", "csw", "world",
               "withdrawal from a ceased chain's final state", _accepted(), _w_csw_accept),
    VectorCase("csw-active-chain", "csw", "world",
               "withdrawal attempted while the chain is alive",
               _rejected("SidechainActive"), _w_csw_active),
    VectorCase("csw-replay", "csw", "world",
               "second withdrawal with the same nullifier",
               _rejected("NullifierReused"), _w_csw_replay),
    VectorCase("csw-bad-proof", "csw", "world",
               "withdrawal evidence altered after proving", _rejected("ProofInvalid"), _w_csw_bad_proof),
    VectorCase("csw-redeem-accept", "csw_redeem", "world",
               "withdrawn message redeemed on its destination chain",
               _accepted(), _w_csw_redeem_accept),
)


def run_case(case: VectorCase) -> dict:
    return case.run().to_json()


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
    data = json.loads(path.read_text())
    if data.get("format") != FORMAT:
        return [f"{path}: unsupported format {data.get('format')!r}"]
    by_id = {case.id: case for case in CASES}
    problems = []
    seen = set()
    for entry in data.get("cases", []):
        case = by_id.get(entry.get("id"))
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
