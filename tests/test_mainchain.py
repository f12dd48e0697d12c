"""Settlement-chain behavior: registration, epochs, windows, ceasing,
quality competition, withdrawal acceptance, and block commitments."""
from dataclasses import replace

import pytest

from worlds import CEASED, COMMITTED, held_withdrawal, run_stage, two_chain_world

from mitto.encoding import canonical_digest
from mitto.hashing import EMPTY_ROOT, EMPTY_STC, ScBlockEntries, build_stc, hash_bytes
from mitto.journal import writes
from mitto.keys import KeyPair
from mitto.mainchain import (
    GENESIS_PARENT,
    STATUS_ALIVE,
    STATUS_CEASED,
    STATUS_PENDING,
    InvalidParams,
    Mainchain,
    NotFound,
)
from mitto.messages import Proof, SCHEME_SIM_MERKLE
from mitto.proofs import csw_nullifier, make_csw_input, make_wcert_input, prove_wcert, sim_merkle_vk
from mitto.verdict import (
    LOWER_QUALITY,
    NULLIFIER_REUSED,
    PROOF_INVALID,
    SIDECHAIN_ACTIVE,
    SIDECHAIN_CEASED,
    SIDECHAIN_PENDING,
    WINDOW_CLOSED,
    WRONG_EPOCH,
)


def bare_vk(label: str):
    return sim_merkle_vk(KeyPair.from_label("wcert", 0, label).public)


def proved_over(chain, cert, anchor):
    """``cert``, proved again by ``chain`` over the block hash ``anchor``."""
    return replace(cert, proof=prove_wcert(chain.wcert_signer, cert.quality, cert.bt_list, anchor, cert.proofdata))


class TestRegistration:
    def test_ids_are_sequential_from_one(self):
        mc = Mainchain()
        first = mc.register_sidechain(2, bare_vk("a"), bare_vk("b"))
        second = mc.register_sidechain(3, bare_vk("c"), bare_vk("d"))
        assert (first, second) == (1, 2)

    def test_epoch_length_must_be_at_least_two(self):
        mc = Mainchain()
        with pytest.raises(InvalidParams):
            mc.register_sidechain(1, bare_vk("a"), bare_vk("b"))

    def test_epoch_length_must_fit_u32(self):
        mc = Mainchain()
        with pytest.raises(InvalidParams):
            mc.register_sidechain(2**32, bare_vk("a"), bare_vk("b"))
        assert mc.register_sidechain(2**32 - 1, bare_vk("a"), bare_vk("b")) == 1
        mc.advance_block()

    def test_pending_until_next_block(self):
        mc = Mainchain()
        sc = mc.register_sidechain(2, bare_vk("a"), bare_vk("b"))
        assert mc.record(sc).status == STATUS_PENDING
        mc.advance_block()
        assert mc.record(sc).status == STATUS_ALIVE
        assert mc.record(sc).creation_height == 1

    def test_registration_digest_lands_in_creation_block(self):
        mc = Mainchain()
        sc = mc.register_sidechain(2, bare_vk("a"), bare_vk("b"))
        block = mc.advance_block()
        reg_digest = canonical_digest(mc.record(sc).registration)
        assert mc.block_by_hash(block.hash).stc.txs_trees[sc].leaves == (reg_digest,)

    def test_unknown_sidechain_raises(self):
        mc = Mainchain()
        with pytest.raises(NotFound):
            mc.record(99)
        with pytest.raises(NotFound):
            mc.get_block(1)
        assert mc.block_by_hash(hash_bytes(b"nope")) is None


class TestChain:
    def test_genesis_links(self):
        mc = Mainchain()
        genesis = mc.get_block(0)
        assert genesis.header.parent_hash == GENESIS_PARENT
        assert mc.block_by_hash(genesis.hash).stc is EMPTY_STC
        block = mc.advance_block()
        assert block.header.parent_hash == genesis.hash
        assert mc.block_by_hash(block.hash) is block

    def test_advancing_zero_blocks_seals_nothing(self):
        mc = Mainchain()
        genesis = mc.tip
        assert mc.advance_blocks(0) is None
        assert mc.tip is genesis
        mc.advance_blocks(3)
        assert mc.tip_height == 3

    def test_an_empty_sealed_block_makes_two_counted_writes(self):
        # The block list's append and the hash index's insert; an empty
        # registration or withdrawal queue is left as it is, not cleared.
        mc = Mainchain()
        sc = mc.register_sidechain(2, bare_vk("a"), bare_vk("b"))
        mc.advance_block()
        assert mc.record(sc).status == STATUS_ALIVE
        for _ in range(3):  # inside epoch 0, so no block finalizes or ceases the chain
            count = writes()
            mc.advance_block()
            assert writes() - count == 2
        assert mc.record(sc).status == STATUS_ALIVE

    def test_stc_root_recomputable_from_included_entries(self):
        # An external verifier regroups each block's entries and re-derives
        # the commitment root with no access to simulator internals. The
        # entries come from the chain's records, not from its commitment
        # trees: registrations by creation height, certificates from the
        # finalized index, withdrawals from the inclusion index. The chain
        # answers for every block's commitment tree, genesis and blocks that
        # commit nothing included.
        w, _ = run_stage(CEASED)
        pkg = held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_blocks(2)
        certs: dict = {}
        txs: dict = {}
        for chain in w.chains.values():
            sc_id = chain.sc_id
            record = w.mainchain.record(sc_id)
            created = w.mainchain.get_block(record.creation_height).hash
            txs.setdefault((created, sc_id), []).append(canonical_digest(record.registration))
            for epoch in range(record.next_epoch()):
                anchor = w.mainchain.finalized_cert(sc_id, epoch)
                certs[(canonical_digest(anchor.header), sc_id)] = canonical_digest(anchor.cert)
            for nullifier in record.used_nullifiers:  # one withdrawal per block here, so order is moot
                csw, block_hash = w.mainchain.csw_inclusion(sc_id, nullifier)
                txs.setdefault((block_hash, sc_id), []).append(canonical_digest(csw))
        empty_blocks = 0
        for height in range(w.mainchain.tip_height + 1):
            block = w.mainchain.get_block(height)
            entries = {
                sc_id: ScBlockEntries(
                    cert_digest=certs.get((block_hash, sc_id)), tx_digests=tuple(txs.get((block_hash, sc_id), ()))
                )
                for block_hash, sc_id in certs.keys() | txs.keys()
                if block_hash == block.hash
            }
            assert build_stc(entries).tree.root == block.stc_root
            stc = w.mainchain.block_by_hash(block.hash).stc
            assert stc.root == block.stc_root
            assert sorted(stc.txs_trees) == sorted(entries)
            empty_blocks += not entries
        assert empty_blocks > 0


class TestCertificateWindows:
    def setup_world(self):
        w = two_chain_world()  # epoch length 2, creation height 1
        return w, w.chains["alpha"]

    def test_rejections_before_and_inside_window(self):
        w, alpha = self.setup_world()
        # tip 1: epoch 0 still running, window opens at tip 3. The honest
        # anchor block does not exist yet, so pin the current tip instead;
        # the window check fires before the proof is ever examined.
        cert = proved_over(alpha, alpha.build_certificate(), w.mainchain.tip.hash)
        assert w.mainchain.submit_certificate(cert).reason == WINDOW_CLOSED
        w.mainchain.advance_blocks(2)  # tip 3
        assert w.mainchain.submit_certificate(alpha.build_certificate()).accepted

    def test_anchor_is_the_tip_until_the_epochs_last_block_is_sealed(self):
        # The anchor rule stated by hand: epoch e ends at creation height
        # 1 + (e + 1) * 2, and until that block exists the tip stands in.
        w, alpha = self.setup_world()
        mc = w.mainchain
        while mc.tip_height < 8:
            for epoch in range(3):
                end = 1 + (epoch + 1) * 2
                expected = mc.get_block(end).hash if end <= mc.tip_height else mc.tip.hash
                assert mc.wcert_anchor_hash(alpha.sc_id, epoch) == expected
            mc.advance_block()

    def test_posting_inputs_are_the_posting_over_its_anchor(self):
        w, _ = run_stage(COMMITTED)
        mc, sc_id = w.mainchain, w.chains["alpha"].sc_id
        cert = mc.finalized_cert(sc_id, 0).cert
        anchor = mc.get_block(mc.record(sc_id).epoch_end(0)).hash
        assert mc.wcert_input(cert) == make_wcert_input(cert.quality, cert.bt_list, anchor, cert.proofdata)
        w, _ = run_stage(CEASED)
        mc, csw = w.mainchain, held_withdrawal(w).csw
        by_hand = make_csw_input(mc.csw_anchor_hash(csw.ledger_id), csw.nullifier, csw.receiver, csw.amount, csw.proofdata)
        assert mc.csw_input(csw) == by_hand

    def test_wrong_epoch(self):
        w, alpha = self.setup_world()
        w.mainchain.advance_blocks(2)
        stale = proved_over(alpha, alpha.build_certificate(epoch_id=1), w.mainchain.tip.hash)
        assert w.mainchain.submit_certificate(stale).reason == WRONG_EPOCH

    def test_pending_sidechain_rejected(self):
        mc = Mainchain()
        sc_id = mc.register_sidechain(2, bare_vk("a"), bare_vk("b"))
        cert = replace(
            _dummy_cert(sc_id), proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"")
        )
        assert mc.submit_certificate(cert).reason == SIDECHAIN_PENDING

    def test_window_status_fields(self):
        w, alpha = self.setup_world()
        record = w.mainchain.record(alpha.sc_id)
        assert record.status == STATUS_ALIVE
        assert record.next_epoch() == 0
        assert record.epoch_end(0) == 3
        assert record.epoch_end(1) - 1 == 4

    def test_finalization_lands_in_first_post_window_block(self):
        w, alpha = self.setup_world()
        w.mainchain.advance_blocks(2)
        cert, verdict = alpha.close_epoch()
        assert verdict.accepted
        w.mainchain.advance_block()  # tip 4, still in window, not yet finalized
        assert w.mainchain.finalized_cert(alpha.sc_id, 0) is None
        block = w.mainchain.advance_block()  # tip 5 seals the window
        assert block.height == 5
        stc = w.mainchain.block_by_hash(block.hash).stc
        assert stc.tree.leaves[stc.cert_leaf_index(alpha.sc_id)] == canonical_digest(cert)
        anchor = w.mainchain.finalized_cert(alpha.sc_id, 0)
        assert anchor.cert == cert and canonical_digest(anchor.header) == block.hash


class TestQualityCompetition:
    def build(self):
        w = two_chain_world()
        alpha = w.chains["alpha"]
        w.mainchain.advance_blocks(2)
        return w, alpha

    def test_higher_quality_replaces_pending(self):
        w, alpha = self.build()
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=1)).accepted
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=5)).accepted
        assert w.mainchain.record(alpha.sc_id).pending_cert.quality == 5

    def test_lower_and_equal_quality_rejected(self):
        w, alpha = self.build()
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=5)).accepted
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=4)).reason == LOWER_QUALITY
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=5)).reason == LOWER_QUALITY
        assert w.mainchain.record(alpha.sc_id).pending_cert.quality == 5

    def test_order_does_not_matter_for_winner(self):
        results = []
        for qualities in ((1, 9), (9, 1)):
            w, alpha = self.build()
            for q in qualities:
                w.mainchain.submit_certificate(alpha.build_certificate(quality=q))
            w.mainchain.advance_blocks(2)
            results.append(w.mainchain.finalized_cert(alpha.sc_id, 0).cert.quality)
        assert results == [9, 9]

    def test_bad_proof_rejected_before_quality(self):
        w, alpha = self.build()
        assert w.mainchain.submit_certificate(alpha.build_certificate(quality=3)).accepted
        bad = alpha.build_certificate(quality=9)
        bad = replace(bad, proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"\x00" * 8))
        assert w.mainchain.submit_certificate(bad).reason == PROOF_INVALID

    def test_wrong_anchor_block_is_proof_invalid(self):
        w, alpha = self.build()
        lying = proved_over(alpha, alpha.build_certificate(), hash_bytes(b"fork"))
        assert w.mainchain.submit_certificate(lying).reason == PROOF_INVALID


class TestCeasing:
    def test_silent_window_ceases_at_first_post_window_seal(self):
        w = two_chain_world()
        alpha = w.chains["alpha"]
        w.mainchain.advance_blocks(3)  # tip 4: window [3, 4] passes silently
        assert w.mainchain.record(alpha.sc_id).status == STATUS_ALIVE
        w.mainchain.advance_block()  # sealing height 5 runs finalize-or-cease
        assert w.mainchain.record(alpha.sc_id).status == STATUS_CEASED

    def test_late_certificate_meets_ceased(self):
        w = two_chain_world()
        alpha = w.chains["alpha"]
        w.mainchain.advance_blocks(4)  # tip 5: ceased
        verdict = w.mainchain.submit_certificate(alpha.build_certificate())
        assert verdict.reason == SIDECHAIN_CEASED

    def test_certified_chain_survives(self):
        w, _ = run_stage(COMMITTED)
        assert w.mainchain.record(w.chains["alpha"].sc_id).status == STATUS_ALIVE
        assert w.mainchain.record(w.chains["alpha"].sc_id).last_epoch == 0


class TestWithdrawalSubmission:
    def test_active_chain_rejects_withdrawals(self):
        w, _ = run_stage(COMMITTED)
        alpha = w.chains["alpha"]
        csw = _dummy_csw(alpha.sc_id, csw_nullifier(alpha.sc_id, hash_bytes(b"e")))
        assert w.mainchain.submit_csw(csw).reason == SIDECHAIN_ACTIVE

    def test_accept_then_reuse_then_include(self):
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        pkg = held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        assert w.mainchain.submit_csw(pkg.csw).reason == NULLIFIER_REUSED
        block = w.mainchain.advance_block()
        assert w.mainchain.block_by_hash(block.hash).stc.txs_trees[alpha.sc_id].leaves == (canonical_digest(pkg.csw),)
        found_csw, block_hash = w.mainchain.csw_inclusion(alpha.sc_id, pkg.csw.nullifier)
        assert found_csw == pkg.csw and block_hash == block.hash

    def test_bad_proof_rejected(self):
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        pkg = held_withdrawal(w)
        broken = replace(pkg.csw, proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=pkg.csw.proof.body[:-2]))
        assert w.mainchain.submit_csw(broken).reason == PROOF_INVALID
        tampered = replace(pkg.csw, amount=7)
        assert w.mainchain.submit_csw(tampered).reason == PROOF_INVALID


def _dummy_cert(sc_id: int):
    from mitto.messages import WithdrawalCertificate

    return WithdrawalCertificate(
        ledger_id=sc_id,
        epoch_id=0,
        quality=1,
        bt_list=(),
        proofdata=(EMPTY_ROOT, EMPTY_ROOT),
        proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b""),
    )


def _dummy_csw(sc_id: int, nullifier):
    from mitto.messages import CeasedSidechainWithdrawal

    return CeasedSidechainWithdrawal(
        ledger_id=sc_id,
        receiver=KeyPair.from_label("actor", 0, "x").public,
        amount=0,
        nullifier=nullifier,
        proofdata=(EMPTY_ROOT,),
        proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b""),
    )
