"""Cross-chain messaging layer: send gating, epoch archives, redeem gating,
replay protection, and the no-delivery-before-confirmation guarantee."""
from dataclasses import replace

import pytest

from worlds import (
    CEASE_AFTER_LONG_LIFE,
    CEASED,
    COMMITTED,
    held_withdrawal,
    long_lived,
    make_send,
    run_stage,
    two_chain_world,
)

from mitto.encoding import canonical_digest
from mitto.hashing import hash_bytes, verify_path
from mitto.journal import writes
from mitto.messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    CscpMessage,
    SendTx,
    message_digest,
    redeem_auth_digest,
)
from mitto.proofs import CertificateNotConfirmed, MessageNotCommitted, SourceKind, anchor_of, message_path
from mitto.sidechain import ByzantineSidechain
from mitto.tokens import (
    MittoState,
    TokenNameRegistry,
    make_csw_redeem_tx,
    make_redeem_tx,
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
    """Two chains, and the 10 TOK alice holds on alpha."""
    w = two_chain_world()
    return w, w.states["alpha"].issue("TOK", True, w.actor("alice").public, hash_bytes(b"g"), amount=10)


def base_message(w, ti, **overrides):
    fields = dict(
        sending_sc_id=w.chains["alpha"].sc_id,
        receiving_sc_id=w.chains["beta"].sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=w.actor("alice").public,
        receiver_id=w.actor("bob").public,
        payload_hash=canonical_digest(ti),
    )
    fields.update(overrides)
    return CscpMessage(**fields)


class TestSendGating:
    def submit(self, w, ti, message, payload=None, signer=None):
        payload = ti.encode() if payload is None else payload
        signer = signer or w.actor("alice")
        tx = SendTx(message=message, payload=payload, signature=signer.sign(message_digest(message)))
        return w.chains["alpha"].accept_send(tx)

    def test_happy_path_appends_to_outbox(self):
        w, ti = fresh()
        verdict = self.submit(w, ti, base_message(w, ti))
        assert verdict.accepted
        assert len(w.chains["alpha"].outbox) == 1
        assert w.states["alpha"].s_tks == {}  # burned on send

    def test_bad_signature(self):
        w, ti = fresh()
        verdict = self.submit(w, ti, base_message(w, ti), signer=w.actor("bob"))
        assert verdict.reason == BAD_SIGNATURE

    def test_wrong_sender_chain(self):
        w, ti = fresh()
        msg = base_message(w, ti, sending_sc_id=w.chains["beta"].sc_id, receiving_sc_id=w.chains["alpha"].sc_id)
        assert self.submit(w, ti, msg).reason == WRONG_SENDER

    def test_payload_mismatch(self):
        w, ti = fresh()
        assert self.submit(w, ti, base_message(w, ti), payload=b"not-the-token").reason == PAYLOAD_MISMATCH

    def test_self_send(self):
        w, ti = fresh()
        msg = base_message(w, ti, receiving_sc_id=w.chains["alpha"].sc_id)
        assert self.submit(w, ti, msg).reason == SELF_SEND

    def test_unregistered_message_type(self):
        w, ti = fresh()
        msg = base_message(w, ti, msg_type=7)
        verdict = self.submit(w, ti, msg)
        assert verdict.reason == HANDLER_REJECTED
        assert verdict.rule == "unregistered-msg-type"

    def test_handler_rejection_leaves_no_trace(self):
        w, ti = fresh()
        ghost = replace(ti, amount=99)
        msg = base_message(w, ti, payload_hash=canonical_digest(ghost))
        verdict = self.submit(w, ti, msg, payload=ghost.encode())
        assert verdict.reason == HANDLER_REJECTED
        assert verdict.rule == "send-1"
        assert w.chains["alpha"].outbox == []
        assert len(w.states["alpha"].s_tks) == 1  # nothing burned

    def test_rejected_send_checks_run_in_declared_order(self):
        # A message failing several gates reports the earliest one.
        w, ti = fresh()
        msg = base_message(w, ti, receiving_sc_id=w.chains["alpha"].sc_id, payload_hash=hash_bytes(b"zzz"))
        tx = SendTx(message=msg, payload=b"junk", signature=w.actor("bob").sign(message_digest(msg)))
        assert w.chains["alpha"].accept_send(tx).reason == BAD_SIGNATURE
        tx = SendTx(message=msg, payload=b"junk", signature=w.actor("alice").sign(message_digest(msg)))
        assert w.chains["alpha"].accept_send(tx).reason == PAYLOAD_MISMATCH


class TestEpochArchive:
    def test_close_epoch_archives_and_resets(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        assert alpha.outbox == []
        assert len(alpha.epochs) == 1
        closed = alpha.epochs[0]
        assert closed.tree.leaves == (message_digest(sent.message),)
        assert w.mainchain.finalized_cert(alpha.sc_id, 0).cert.proofdata[0] == closed.tree.root

    def test_rejected_close_keeps_outbox(self):
        w, ti = fresh()
        alpha = w.chains["alpha"]
        _, _, verdict = make_send(alpha, w.actor("alice"), ti, w.chains["beta"], w.actor("bob"))
        assert verdict.accepted
        # tip is 1: epoch 0's submission window has not opened
        cert, close_verdict = alpha.close_epoch()
        assert not close_verdict.accepted
        assert len(alpha.outbox) == 1
        assert alpha.epochs == []

    def test_message_path_in_archived_epoch(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        tree, cert = alpha.epochs[0].tree, anchor_of(w.mainchain, alpha.sc_id, 0).cert
        path = message_path(tree, sent.message, cert)
        assert tree.leaves[path.leaf_index] == message_digest(sent.message)
        assert verify_path(cert.proofdata[0], message_digest(sent.message), path)
        stranger = replace(sent.message, payload_hash=hash_bytes(b"nope"))
        with pytest.raises(MessageNotCommitted):
            message_path(tree, stranger, cert)
        with pytest.raises(CertificateNotConfirmed):
            message_path(tree, sent.message, anchor_of(w.mainchain, w.chains["beta"].sc_id, 0).cert)

    def test_only_the_last_finalized_epochs_keep_their_state(self):
        """Right after an accepted close, the epochs from the last finalized
        one on keep their committed state and captures, however many closed
        before; every epoch keeps the tree its certificate committed."""
        kept = {}
        for epochs in (4, 16):
            w, sends = run_stage(long_lived(epochs))
            for label, chain in w.chains.items():
                last = w.mainchain.record(chain.sc_id).last_epoch
                assert (last, len(chain.epochs)) == (epochs - 2, epochs)
                kept[epochs, label] = [
                    i for i, e in enumerate(chain.epochs) if e.committed is not None or e.captures is not None
                ]
                assert kept[epochs, label] == list(range(last, epochs))
                for i, closed in enumerate(chain.epochs[: last + 1]):
                    assert w.mainchain.finalized_cert(chain.sc_id, i).cert.proofdata[0] == closed.tree.root
            assert w.chains["beta"].epochs[0].tree.leaves == (message_digest(sends["in"].message),)
        assert {len(epochs) for epochs in kept.values()} == {2}

    def test_pruned_archive_still_redeems_and_withdraws(self):
        """After 16 closed and finalized epochs, a send committed in epoch 0
        is redeemed; the receiving chain then ceases, and a held and a
        foreign withdrawal from it are accepted and redeemed."""
        stage = long_lived(16)
        stage["steps"] += CEASE_AFTER_LONG_LIFE
        w, _ = run_stage(stage)
        assert w.mainchain.record(w.chains["alpha"].sc_id).status == "ceased"
        assert {(ti.token_name, ti.amount) for ti in w.states["beta"].s_tks.values()} == {("KEEP", 50), ("FOR", 30)}


def committed_redeem():
    """The committed stage, its in-flight send, and bob's redeem of it on beta."""
    w, sends = run_stage(COMMITTED)
    sent = sends["sent"]
    return w, sent, make_redeem_tx(w.mainchain, w.chains["alpha"], 0, sent.message, sent.payload, sent.sender_sig,
                                   w.actor("bob"))


class TestRedeemGating:
    def test_golden_redeem(self):
        w, _, tx = committed_redeem()
        beta = w.chains["beta"]
        assert beta.accept_redeem(tx).accepted
        minted = list(w.states["beta"].s_tks.values())
        assert len(minted) == 1
        assert minted[0].owner == w.actor("bob").public
        assert minted[0].amount == 60

    def test_replay_rejected(self):
        w, _, tx = committed_redeem()
        beta = w.chains["beta"]
        assert beta.accept_redeem(tx).accepted
        verdict = beta.accept_redeem(tx)
        assert verdict.reason == ALREADY_REDEEMED
        assert len(w.states["beta"].s_tks) == 1

    def test_wrong_receiving_chain(self):
        w, _, tx = committed_redeem()
        assert w.chains["alpha"].accept_redeem(tx).reason == WRONG_RECEIVING_CHAIN

    def test_receiver_auth_is_checked(self):
        w, sent, tx = committed_redeem()
        beta = w.chains["beta"]
        forged = replace(tx, receiver_signature=w.actor("alice").sign(redeem_auth_digest(sent.message, tx.payload)))
        verdict = beta.accept_redeem(forged)
        assert verdict.reason == BAD_RECEIVER_AUTH
        assert verdict.rule == "redeem-6"

    def test_tampered_proof_rejected(self):
        w, _, tx = committed_redeem()
        beta = w.chains["beta"]
        bad = replace(tx, proof=replace(tx.proof, msg_tree_root=hash_bytes(b"lie")))
        verdict = beta.accept_redeem(bad)
        assert verdict.reason == PROOF_INVALID
        assert verdict.rule == "redeem-7"
        assert w.states["beta"].s_tks == {}

    def test_replay_with_broken_proof_is_already_redeemed(self):
        # The redeemed set is checked before the proof: a replay is refused
        # as a replay whatever evidence it carries, and the same broken
        # evidence on a first redeem is still refused as a bad proof.
        w, _, tx = committed_redeem()
        beta = w.chains["beta"]
        wrong_block = replace(tx, proof=replace(tx.proof, block_hash=w.mainchain.get_block(0).hash))
        first = beta.accept_redeem(wrong_block)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert beta.accept_redeem(tx).accepted
        assert beta.accept_redeem(wrong_block).reason == ALREADY_REDEEMED
        assert len(w.states["beta"].s_tks) == 1

    def test_csw_replay_with_broken_proof_is_already_redeemed(self):
        w, _ = run_stage(CEASED)
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        pkg = held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_block()
        tx = make_csw_redeem_tx(w.mainchain, pkg, w.actor("bob"))
        wrong_block = replace(tx, proof=replace(tx.proof, block_hash=w.mainchain.get_block(0).hash))
        first = beta.accept_csw_redeem(wrong_block)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert beta.accept_csw_redeem(tx).accepted
        assert beta.accept_csw_redeem(wrong_block).reason == ALREADY_REDEEMED

    @pytest.mark.parametrize("evidence", [
        "block:unknown", "block:registration", "block:finalizing-nothing",
        "certificate:other-chain", "certificate:other-epoch", "anchor:other-chain", "anchor:other-epoch",
        "kind:withdrawal",
    ])
    def test_unresolvable_evidence_is_a_bad_proof_until_redeemed(self, evidence):
        # Epochs 0 and 1 of both chains are finalized, in blocks 5 and 7.
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        for sc in (alpha, beta):
            assert sc.close_epoch()[1].accepted
        w.mainchain.advance_blocks(2)
        tx = make_redeem_tx(w.mainchain, alpha, 0, sent.message, sent.payload, sent.sender_sig, w.actor("bob"))
        kind, _, which = evidence.partition(":")
        if kind == "kind":
            proof = replace(tx.proof, source_kind=SourceKind.CSW)
        elif kind == "block":
            proof = replace(tx.proof, block_hash={
                "unknown": hash_bytes(b"no such block"),
                "registration": w.mainchain.get_block(1).hash,
                "finalizing-nothing": w.mainchain.get_block(6).hash,
            }[which])
        else:
            sc_id, epoch = (beta.sc_id, 0) if which == "other-chain" else (alpha.sc_id, 1)
            anchor = anchor_of(w.mainchain, sc_id, epoch)
            path = replace(tx.proof.commitment_path, posting_digest=canonical_digest(anchor.cert))
            proof = replace(tx.proof, commitment_path=path)
            if kind == "anchor":
                path = replace(path, segments=(anchor.stc_path,))
                proof = replace(proof, commitment_path=path, block_hash=canonical_digest(anchor.header))
        bad = replace(tx, proof=proof)
        first = beta.accept_redeem(bad)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert beta.accept_redeem(tx).accepted
        assert beta.accept_redeem(bad).reason == ALREADY_REDEEMED

    @pytest.mark.parametrize("evidence", ["kind:certificate", "posting:other", "csw_ref:unknown"])
    def test_csw_evidence_not_of_the_named_withdrawal_is_a_bad_proof_until_redeemed(self, evidence):
        # A csw_ref that names no included withdrawal is a missing posting,
        # looked up only after the replay check.
        w, _ = run_stage(CEASED)
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        pkg = held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_block()
        tx = make_csw_redeem_tx(w.mainchain, pkg, w.actor("bob"))
        if evidence == "kind:certificate":
            bad = replace(tx, proof=replace(tx.proof, source_kind=SourceKind.CERTIFICATE))
        elif evidence == "posting:other":
            path = replace(tx.proof.commitment_path, posting_digest=hash_bytes(b"x"))
            bad = replace(tx, proof=replace(tx.proof, commitment_path=path))
        else:
            bad = replace(tx, csw_ref=(alpha.sc_id, hash_bytes(b"no such withdrawal")))
        count = writes()
        first = beta.accept_csw_redeem(bad)
        assert (first.reason, first.rule) == (PROOF_INVALID, "redeem-7")
        assert writes() == count
        assert beta.accept_csw_redeem(tx).accepted
        assert beta.accept_csw_redeem(bad).reason == ALREADY_REDEEMED

    def test_no_delivery_before_confirmation(self):
        # At every stage before the source certificate is finalized, the
        # receiving chain has no way to accept the message.
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        sa = w.states["alpha"]
        ti = sa.issue("TOK", True, w.actor("alice").public, hash_bytes(b"t"), amount=10)
        message, tx, verdict = make_send(alpha, w.actor("alice"), ti, beta, w.actor("bob"))
        assert verdict.accepted

        def try_redeem():
            return beta.accept_redeem(
                make_redeem_tx(w.mainchain, alpha, 0, message, tx.payload, tx.signature, w.actor("bob"))
            )

        # stage 1: epoch not closed, no archived tree to prove against
        with pytest.raises(IndexError):
            try_redeem()
        w.mainchain.advance_blocks(2)
        cert, close_verdict = alpha.close_epoch()
        assert close_verdict.accepted
        # stages 2 and 3: certificate pending, evidence cannot be assembled
        with pytest.raises(CertificateNotConfirmed):
            try_redeem()
        w.mainchain.advance_block()  # tip 4: still inside the window
        with pytest.raises(CertificateNotConfirmed):
            try_redeem()
        w.mainchain.advance_block()  # tip 5: finalized, delivery becomes possible
        assert try_redeem().accepted


class TestByzantineFabrication:
    def test_fabricated_send_bypasses_local_rules_but_is_committed(self):
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        evil = ByzantineSidechain(w.mainchain, alpha.sc_id, alpha.wcert_signer, alpha.csw_signer, label="evil")
        evil.handlers = alpha.handlers
        fake = w.states["beta"].issue("GOLD", True, w.actor("bob").public, hash_bytes(b"fake"), amount=1000)
        message = CscpMessage(
            sending_sc_id=alpha.sc_id,
            receiving_sc_id=beta.sc_id,
            msg_type=MSG_TYPE_TOKEN_TRANSFER,
            sender_id=w.actor("alice").public,
            receiver_id=w.actor("bob").public,
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
