"""Deterministic world builders shared by the integration-level test files.

Each builder assembles a mainchain plus token sidechains, drives them to a
named stage, and returns a namespace of the pieces tests poke at. Everything
is seeded, so repeated calls give byte-identical worlds.
"""
from types import SimpleNamespace

from mitto.encoding import canonical_digest
from mitto.hashing import hash_bytes
from mitto.keys import KeyPair
from mitto.mainchain import Mainchain
from mitto.proofs import verify_redeem
from mitto.messages import MSG_TYPE_TOKEN_TRANSFER, CscpMessage, CswRedeemTx, RedeemTx, SendTx, message_digest
from mitto.sidechain import Sidechain
from mitto.tokens import TokenNameRegistry, attach_token_ledger, make_redeem_tx


def two_chain_world(epoch_length=2, seed=1):
    """Mainchain with two freshly activated token chains and two actors."""
    mc = Mainchain()
    registry = TokenNameRegistry()
    chains, states = {}, {}
    for label in ("alpha", "beta"):
        sc = Sidechain.create(mc, epoch_length, label, seed=seed)
        chains[label], states[label] = sc, attach_token_ledger(sc, registry)
    mc.advance_block()
    return SimpleNamespace(
        mc=mc,
        registry=registry,
        chains=chains,
        states=states,
        alice=KeyPair.from_label("actor", seed, "alice"),
        bob=KeyPair.from_label("actor", seed, "bob"),
    )


def redeem_verifies(w, message, payload, proof, csw_ref=None) -> bool:
    """``verify_redeem`` on what beta's gate resolves for the evidence, as
    a redeem on beta runs it; a CSW redeem names its withdrawal by
    ``csw_ref``. The resolver reads no signature, so none is made."""
    if csw_ref is None:
        tx = RedeemTx(message, payload, proof, sender_sig=b"", receiver_signature=b"")
    else:
        tx = CswRedeemTx(message, payload, proof, sender_sig=b"", receiver_signature=b"", csw_ref=csw_ref)
    return verify_redeem(*w.chains["beta"].resolve_redeem(tx), message, payload, proof)


def make_send(chain, owner: KeyPair, instance, to_chain, receiver: KeyPair):
    """Build and submit a token send; returns (message, tx, verdict)."""
    message = CscpMessage(
        sending_sc_id=chain.sc_id,
        receiving_sc_id=to_chain.sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=owner.public,
        receiver_id=receiver.public,
        payload_hash=canonical_digest(instance),
    )
    tx = SendTx(message=message, payload=instance.encode(), signature=owner.sign(message_digest(message)))
    return message, tx, chain.accept_send(tx)


def committed_world():
    """Epoch 0 closed on both chains and finalized, with one in-flight send.

    alpha issued 100 units of fungible WBT to alice and sent 60 to bob on
    beta; the send is committed in alpha's finalized epoch-0 certificate but
    not yet redeemed.
    """
    w = two_chain_world()
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    sa = w.states["alpha"]
    whole = sa.issue("WBT", True, w.alice.public, hash_bytes(b"wbt-genesis"), amount=100)
    part, _rest = sa.split(canonical_digest(whole), 60)
    w.message, w.send_tx, verdict = make_send(alpha, w.alice, part, beta, w.bob)
    assert verdict.accepted
    w.instance = part
    w.mc.advance_blocks(2)  # tip 3: inside epoch 0's submission window
    for sc in (alpha, beta):
        cert, v = sc.close_epoch()
        assert v.accepted, v.reason
    w.mc.advance_blocks(2)  # tip 5: epoch 0 finalized for both chains
    return w


def ceased_world(seed=1):
    """Three chains; alpha ceases holding one native, one foreign, and one
    sent-away token, with gamma's unredeemed return stranded in its epoch-1
    certificate. This is the stage every ceased-flow test starts from.
    """
    mc = Mainchain()
    registry = TokenNameRegistry()
    chains, states = {}, {}
    for label in ("alpha", "beta", "gamma"):
        sc = Sidechain.create(mc, 2, label, seed=seed)
        chains[label], states[label] = sc, attach_token_ledger(sc, registry)
    mc.advance_block()
    w = SimpleNamespace(
        mc=mc,
        registry=registry,
        chains=chains,
        states=states,
        alice=KeyPair.from_label("actor", seed, "alice"),
        bob=KeyPair.from_label("actor", seed, "bob"),
    )
    alpha, beta, gamma = chains["alpha"], chains["beta"], chains["gamma"]
    sa, sb, sg = states["alpha"], states["beta"], states["gamma"]

    w.kept = sa.issue("KEEP", True, w.alice.public, hash_bytes(b"keep"), amount=50)
    sent = sa.issue("SENT", True, w.alice.public, hash_bytes(b"sent"), amount=100)
    foreign = sb.issue("FOR", True, w.bob.public, hash_bytes(b"for"), amount=30)

    m1, t1, v1 = make_send(alpha, w.alice, sent, gamma, w.bob)
    m2, t2, v2 = make_send(beta, w.bob, foreign, alpha, w.alice)
    assert v1.accepted and v2.accepted
    mc.advance_blocks(2)  # tip 3
    for sc in (alpha, beta, gamma):
        assert sc.close_epoch()[1].accepted
    mc.advance_blocks(2)  # tip 5: epoch 0 finalized

    assert gamma.accept_redeem(make_redeem_tx(mc, alpha, 0, m1, t1.payload, t1.signature, w.bob)).accepted
    assert alpha.accept_redeem(make_redeem_tx(mc, beta, 0, m2, t2.payload, t2.signature, w.alice)).accepted
    returned = next(iter(sg.s_tks.values()))
    w.return_message, w.return_tx, v3 = make_send(gamma, w.bob, returned, alpha, w.alice)
    assert v3.accepted
    for sc in (alpha, beta, gamma):  # epoch-1 window is [5, 6]
        assert sc.close_epoch()[1].accepted
    mc.advance_blocks(2)  # tip 7: epoch 1 finalized
    for sc in (beta, gamma):  # alpha stays silent for epoch 2
        assert sc.close_epoch()[1].accepted
    mc.advance_blocks(2)  # tip 9: alpha ceased, beta and gamma alive
    assert mc.get_status(alpha.sc_id)["status"] == "ceased"
    w.foreign_digest = next(
        d for d, t in alpha.finalized_epoch().snapshots[MSG_TYPE_TOKEN_TRANSFER].s_tks.items() if t.token_name == "FOR"
    )
    return w
