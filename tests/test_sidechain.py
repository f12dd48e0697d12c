"""Cross-chain messaging layer: send gating, epoch archives, redeem gating,
replay protection, and the no-delivery-before-confirmation guarantee."""
from dataclasses import replace

import pytest

from worlds import ceased_world, committed_world, make_send, two_chain_world

from mitto.encoding import canonical_digest
from mitto.hashing import hash_bytes, verify_path
from mitto.messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    CscpMessage,
    SendTx,
    message_digest,
    redeem_auth_digest,
)
from mitto.proofs import CertificateNotConfirmed, MessageNotCommitted, anchor_of, message_path
from mitto.sidechain import ByzantineSidechain
from mitto.tokens import (
    MittoState,
    TokenNameRegistry,
    make_csw_redeem_tx,
    make_redeem_tx,
    withdraw_native_held,
)
from mitto.verdict import (
    ALREADY_REDEEMED,
    BAD_RECEIVER_AUTH,
    BAD_SIGNATURE,
    HANDLER_REJECTED,
    PAYLOAD_MISMATCH,
    PROOF_INVALID,
    SELF_SEND,
    WRONG_RECEIVING_CHAIN,
    WRONG_SENDER,
)


def fresh():
    w = two_chain_world()
    w.instance = w.states["alpha"].issue("TOK", True, w.alice.public, hash_bytes(b"g"), amount=10)
    return w


def base_message(w, **overrides):
    fields = dict(
        sending_sc_id=w.chains["alpha"].sc_id,
        receiving_sc_id=w.chains["beta"].sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=w.alice.public,
        receiver_id=w.bob.public,
        payload_hash=canonical_digest(w.instance),
    )
    fields.update(overrides)
    return CscpMessage(**fields)


class TestSendGating:
    def submit(self, w, message, payload=None, signer=None):
        payload = w.instance.encode() if payload is None else payload
        signer = signer or w.alice
        tx = SendTx(message=message, payload=payload, signature=signer.sign(message_digest(message)))
        return w.chains["alpha"].accept_send(tx)

    def test_happy_path_appends_to_outbox(self):
        w = fresh()
        verdict = self.submit(w, base_message(w))
        assert verdict.accepted
        assert len(w.chains["alpha"].outbox) == 1
        assert w.states["alpha"].s_tks == {}  # burned on send

    def test_bad_signature(self):
        w = fresh()
        verdict = self.submit(w, base_message(w), signer=w.bob)
        assert verdict.reason == BAD_SIGNATURE

    def test_wrong_sender_chain(self):
        w = fresh()
        msg = base_message(w, sending_sc_id=w.chains["beta"].sc_id, receiving_sc_id=w.chains["alpha"].sc_id)
        assert self.submit(w, msg).reason == WRONG_SENDER

    def test_payload_mismatch(self):
        w = fresh()
        assert self.submit(w, base_message(w), payload=b"not-the-token").reason == PAYLOAD_MISMATCH

    def test_self_send(self):
        w = fresh()
        msg = base_message(w, receiving_sc_id=w.chains["alpha"].sc_id)
        assert self.submit(w, msg).reason == SELF_SEND

    def test_unregistered_message_type(self):
        w = fresh()
        msg = base_message(w, msg_type=7)
        verdict = self.submit(w, msg)
        assert verdict.reason == HANDLER_REJECTED
        assert verdict.rule == "unregistered-msg-type"

    def test_handler_rejection_leaves_no_trace(self):
        w = fresh()
        ghost = replace(w.instance, amount=99)
        msg = base_message(w, payload_hash=canonical_digest(ghost))
        verdict = self.submit(w, msg, payload=ghost.encode())
        assert verdict.reason == HANDLER_REJECTED
        assert verdict.rule == "send-1"
        assert w.chains["alpha"].outbox == []
        assert len(w.states["alpha"].s_tks) == 1  # nothing burned

    def test_rejected_send_checks_run_in_declared_order(self):
        # A message failing several gates reports the earliest one.
        w = fresh()
        msg = base_message(w, receiving_sc_id=w.chains["alpha"].sc_id, payload_hash=hash_bytes(b"zzz"))
        tx = SendTx(message=msg, payload=b"junk", signature=w.bob.sign(message_digest(msg)))
        assert w.chains["alpha"].accept_send(tx).reason == BAD_SIGNATURE
        tx = SendTx(message=msg, payload=b"junk", signature=w.alice.sign(message_digest(msg)))
        assert w.chains["alpha"].accept_send(tx).reason == PAYLOAD_MISMATCH


class TestEpochArchive:
    def test_close_epoch_archives_and_resets(self):
        w = committed_world()
        alpha = w.chains["alpha"]
        assert alpha.outbox == []
        assert len(alpha.epochs) == 1
        closed = alpha.epochs[0]
        assert [message_digest(m) for m, _ in closed.messages] == [message_digest(w.message)]
        assert closed.submitted_cert.proofdata[0] == closed.tree.root

    def test_rejected_close_keeps_outbox(self):
        w = fresh()
        alpha = w.chains["alpha"]
        _, _, verdict = make_send(alpha, w.alice, w.instance, w.chains["beta"], w.bob)
        assert verdict.accepted
        # tip is 1: epoch 0's submission window has not opened
        cert, close_verdict = alpha.close_epoch()
        assert not close_verdict.accepted
        assert len(alpha.outbox) == 1
        assert alpha.epochs == []

    def test_message_path_in_archived_epoch(self):
        w = committed_world()
        alpha = w.chains["alpha"]
        tree, cert = alpha.epochs[0].tree, anchor_of(w.mc, alpha.sc_id, 0).cert
        path = message_path(tree, w.message, cert)
        assert tree.leaves[path.leaf_index] == message_digest(w.message)
        assert verify_path(cert.proofdata[0], message_digest(w.message), path)
        stranger = replace(w.message, payload_hash=hash_bytes(b"nope"))
        with pytest.raises(MessageNotCommitted):
            message_path(tree, stranger, cert)
        with pytest.raises(CertificateNotConfirmed):
            message_path(tree, w.message, anchor_of(w.mc, w.chains["beta"].sc_id, 0).cert)


class TestRedeemGating:
    def test_golden_redeem(self):
        w = committed_world()
        beta = w.chains["beta"]
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        assert beta.accept_redeem(tx).accepted
        minted = list(w.states["beta"].s_tks.values())
        assert len(minted) == 1
        assert minted[0].owner == w.bob.public
        assert minted[0].amount == 60

    def test_replay_rejected(self):
        w = committed_world()
        beta = w.chains["beta"]
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        assert beta.accept_redeem(tx).accepted
        verdict = beta.accept_redeem(tx)
        assert verdict.reason == ALREADY_REDEEMED
        assert len(w.states["beta"].s_tks) == 1

    def test_wrong_receiving_chain(self):
        w = committed_world()
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        assert w.chains["alpha"].accept_redeem(tx).reason == WRONG_RECEIVING_CHAIN

    def test_receiver_auth_is_checked(self):
        w = committed_world()
        beta = w.chains["beta"]
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        forged = replace(tx, receiver_signature=w.alice.sign(redeem_auth_digest(w.message, tx.payload)))
        verdict = beta.accept_redeem(forged)
        assert verdict.reason == BAD_RECEIVER_AUTH
        assert verdict.rule == "redeem-6"

    def test_tampered_proof_rejected(self):
        w = committed_world()
        beta = w.chains["beta"]
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        bad = replace(tx, proof=replace(tx.proof, msg_tree_root=hash_bytes(b"lie")))
        verdict = beta.accept_redeem(bad)
        assert verdict.reason == PROOF_INVALID
        assert verdict.rule == "redeem-7"
        assert w.states["beta"].s_tks == {}

    def test_replay_with_broken_proof_is_already_redeemed(self):
        # The redeemed set is checked before the proof: a replay is refused
        # as a replay whatever evidence it carries, and the same broken
        # evidence on a first redeem is still refused as a bad proof.
        w = committed_world()
        beta = w.chains["beta"]
        tx = make_redeem_tx(w.mc, w.chains["alpha"], 0, w.message, w.send_tx.payload, w.send_tx.signature, w.bob)
        wrong_block = replace(tx, proof=replace(tx.proof, block_hash=w.mc.get_block(0).hash))
        first = beta.accept_redeem(wrong_block)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert beta.accept_redeem(tx).accepted
        assert beta.accept_redeem(wrong_block).reason == ALREADY_REDEEMED
        assert len(w.states["beta"].s_tks) == 1

    def test_csw_replay_with_broken_proof_is_already_redeemed(self):
        w = ceased_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        pkg = withdraw_native_held(alpha, w.alice, canonical_digest(w.kept), beta.sc_id, w.bob.public)
        assert w.mc.submit_csw(pkg.csw).accepted
        w.mc.advance_block()
        tx = make_csw_redeem_tx(w.mc, pkg, w.bob)
        wrong_block = replace(tx, proof=replace(tx.proof, block_hash=w.mc.get_block(0).hash))
        first = beta.accept_csw_redeem(wrong_block)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert beta.accept_csw_redeem(tx).accepted
        assert beta.accept_csw_redeem(wrong_block).reason == ALREADY_REDEEMED

    def test_no_delivery_before_confirmation(self):
        # At every stage before the source certificate is finalized, the
        # receiving chain has no way to accept the message.
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        sa = w.states["alpha"]
        ti = sa.issue("TOK", True, w.alice.public, hash_bytes(b"t"), amount=10)
        message, tx, verdict = make_send(alpha, w.alice, ti, beta, w.bob)
        assert verdict.accepted

        def try_redeem():
            return beta.accept_redeem(
                make_redeem_tx(w.mc, alpha, 0, message, tx.payload, tx.signature, w.bob)
            )

        # stage 1: epoch not closed, no archived tree to prove against
        with pytest.raises(IndexError):
            try_redeem()
        w.mc.advance_blocks(2)
        cert, close_verdict = alpha.close_epoch()
        assert close_verdict.accepted
        # stages 2 and 3: certificate pending, evidence cannot be assembled
        with pytest.raises(CertificateNotConfirmed):
            try_redeem()
        w.mc.advance_block()  # tip 4: still inside the window
        with pytest.raises(CertificateNotConfirmed):
            try_redeem()
        w.mc.advance_block()  # tip 5: finalized, delivery becomes possible
        assert try_redeem().accepted


class TestByzantineFabrication:
    def test_fabricated_send_bypasses_local_rules_but_is_committed(self):
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        evil = ByzantineSidechain(w.mc, alpha.sc_id, alpha.wcert_signer, alpha.csw_signer, label="evil")
        evil.handlers = alpha.handlers
        fake = w.states["beta"].issue("GOLD", True, w.bob.public, hash_bytes(b"fake"), amount=1000)
        message = CscpMessage(
            sending_sc_id=alpha.sc_id,
            receiving_sc_id=beta.sc_id,
            msg_type=MSG_TYPE_TOKEN_TRANSFER,
            sender_id=w.alice.public,
            receiver_id=w.bob.public,
            payload_hash=canonical_digest(fake),
        )
        evil.fabricate_send(message, fake.encode())
        assert len(evil.outbox) == 1
        assert w.states["alpha"].s_tks == {}  # nothing was ever burned


def test_handler_registration_is_exclusive():
    w = two_chain_world()
    extra = MittoState(sc_id=w.chains["alpha"].sc_id, registry=TokenNameRegistry())
    with pytest.raises(ValueError):
        w.chains["alpha"].register_handler(MSG_TYPE_TOKEN_TRANSFER, extra)
