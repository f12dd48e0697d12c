"""Proof scheme behavior: inputs, witness bundles, evidence verification.

The crucial property throughout: verification must depend on every byte the
prover committed to, and a verifier must answer False (never crash) for any
malformed proof body.
"""
import hashlib
import inspect
from dataclasses import replace

import pytest

from worlds import (
    CEASED, COMMITTED, SCENARIO_DIR, held, held_withdrawal, make_send, redeem_verifies, run_stage, two_chain_world,
)

from mitto import mainchain as mainchain_module, proofs, sidechain as sidechain_module
from mitto.encoding import ByteReader, canonical_digest, enc_bytes, enc_u32
from mitto.harness import Runner
from mitto.hashing import EMPTY_ROOT, MerklePath, build_merkle, hash_bytes, merkle_path, verify_path
from mitto.keys import KeyPair
from mitto.messages import Proof, VerificationKey, message_digest
from mitto.proofs import (
    CertificateNotConfirmed,
    ClaimKind,
    CommitmentChain,
    CommittedState,
    CswBundle,
    CswClaim,
    CswNotFound,
    CswPublicInput,
    EntityNotInState,
    InconsistentWitness,
    MessageMismatch,
    MessageNotCommitted,
    RedeemProof,
    SourceKind,
    WcertPublicInput,
    anchor_of,
    build_csw_redeem_proof,
    build_redeem_proof,
    claim_proofdata,
    csw_nullifier,
    make_csw_input,
    make_wcert_input,
    prove_csw,
    prove_wcert,
    sim_merkle_vk,
    verify_csw,
    verify_redeem,
    verify_wcert,
)
from mitto.scenario import load_scenario
from mitto.tokens import final_ledger, make_redeem_tx, withdraw_foreign, withdraw_native_sent


SIGNER = KeyPair.from_label("wcert", 0, "prover")
VK = sim_merkle_vk(SIGNER.public)


def test_nullifier_formula_matches_independent_recomputation():
    entity = hash_bytes(b"entity")
    expected = hashlib.sha256(enc_u32(7) + entity).digest()
    assert csw_nullifier(7, entity) == expected
    assert csw_nullifier(8, entity) != expected


def test_public_input_encode_decode_roundtrip():
    wc = make_wcert_input(5, (b"bt",), hash_bytes(b"blk"), (hash_bytes(b"pd"),))
    assert WcertPublicInput.read(ByteReader(wc.encode())) == wc
    csw = make_csw_input(hash_bytes(b"blk"), hash_bytes(b"nul"), SIGNER.public, 0, (hash_bytes(b"pd"),))
    assert CswPublicInput.read(ByteReader(csw.encode())) == csw


def test_path_codec_roundtrip():
    tree = build_merkle([hash_bytes(bytes([i])) for i in range(5)])
    path = merkle_path(tree, 3)
    decoded = MerklePath.read(ByteReader(path.encode()))
    assert decoded == path


class TestWcertScheme:
    BT = (b"transfer-1", b"transfer-2")
    PD = (hash_bytes(b"msgroot"), hash_bytes(b"stateroot"))

    def make(self, quality=5):
        pub = make_wcert_input(quality, self.BT, hash_bytes(b"last-block"), self.PD)
        return pub, prove_wcert(SIGNER, pub, self.BT, self.PD)

    def test_honest_proof_verifies(self):
        pub, proof = self.make()
        assert verify_wcert(VK, pub, proof)

    def test_witness_must_match_input(self):
        pub = make_wcert_input(5, self.BT, hash_bytes(b"last-block"), self.PD)
        with pytest.raises(InconsistentWitness):
            prove_wcert(SIGNER, pub, (b"other",), self.PD)
        with pytest.raises(InconsistentWitness):
            prove_wcert(SIGNER, pub, self.BT, (EMPTY_ROOT,))

    def test_any_field_change_breaks_verification(self):
        pub, proof = self.make()
        for mutant in [
            replace(pub, quality=6),
            replace(pub, bt_list_root=hash_bytes(b"x")),
            replace(pub, last_block_hash=hash_bytes(b"y")),
            replace(pub, proofdata_root=hash_bytes(b"z")),
        ]:
            assert not verify_wcert(VK, mutant, proof)

    def test_wrong_signer_fails(self):
        pub, proof = self.make()
        other = sim_merkle_vk(KeyPair.from_label("wcert", 0, "other").public)
        assert not verify_wcert(other, pub, proof)

    def test_scheme_mismatch_verifies_false(self):
        pub, proof = self.make()
        for _ in range(2):
            assert verify_wcert(VK, pub, replace(proof, scheme_id=2)) is False
            assert verify_wcert(VerificationKey(scheme_id=2, params=VK.params), pub, proof) is False

    def test_garbage_and_truncated_bodies_return_false(self):
        pub, proof = self.make()
        assert not verify_wcert(VK, pub, Proof(scheme_id=proof.scheme_id, body=b""))
        assert not verify_wcert(VK, pub, Proof(scheme_id=proof.scheme_id, body=b"\xff" * 10))
        assert not verify_wcert(VK, pub, replace(proof, body=proof.body[:-1]))


class TestCommittedState:
    def test_path_for_unknown_entity_raises(self):
        state = CommittedState.from_digests([hash_bytes(b"a")])
        with pytest.raises(EntityNotInState):
            state.path_for(hash_bytes(b"missing"))

    def test_root_is_order_independent(self):
        a = CommittedState.from_digests([hash_bytes(b"a"), hash_bytes(b"b")])
        b = CommittedState.from_digests([hash_bytes(b"b"), hash_bytes(b"a")])
        assert a.root == b.root

    def test_root_is_the_root_of_the_tree_its_paths_come_from(self):
        digests = [hash_bytes(bytes([i])) for i in range(5)]
        state = CommittedState.from_digests(reversed(digests))
        assert state.root == build_merkle(sorted(digests)).root
        for digest in digests:
            assert verify_path(state.root, digest, state.path_for(digest))


def resigned(chain, csw, **changes) -> tuple:
    """(public input, proof) for ``csw``'s bundle with ``changes`` applied:
    the input is recomputed to name the new anchor's block and proofdata,
    and signed again with ``chain``'s withdrawal key."""
    bundle = replace(CswBundle.decode(csw.proof.body), **changes)
    pub = make_csw_input(canonical_digest(bundle.anchor.header), csw.nullifier, csw.receiver, 0, bundle.proofdata)
    bundle = replace(bundle, signature=chain.csw_signer.sign(canonical_digest(pub)))
    return pub, Proof(scheme_id=csw.proof.scheme_id, body=bundle.encode())


def sent_withdrawal(world, ret, holder_epoch_id=1):
    """In the ceased stage: bob withdraws the SENT that gamma's return
    ``ret`` stranded, for himself on beta."""
    return withdraw_native_sent(
        world.chains["alpha"], world.chains["gamma"], ret.message, ret.payload,
        holder_epoch_id, world.actor("bob"), world.chains["beta"].sc_id, world.actor("bob").public,
    )


class TestCswScheme:
    def test_native_held_proof_verifies(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        record = w.mainchain.record(alpha.sc_id)
        vk = record.registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        assert verify_csw(vk, pub, pkg.csw.proof)

    def test_every_input_field_is_binding(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        stranger = KeyPair.from_label("actor", 9, "mallory").public
        assert stranger != pub.receiver
        mutants = [
            replace(pub, last_cert_block_hash=hash_bytes(b"x")),
            replace(pub, nullifier=hash_bytes(b"y")),
            replace(pub, receiver=stranger),
            replace(pub, amount=1),
            replace(pub, proofdata_root=hash_bytes(b"z")),
        ]
        for mutant in mutants:
            assert not verify_csw(vk, mutant, pkg.csw.proof)

    def test_sent_record_proof_verifies_and_binds_evidence(self):
        w, sends = run_stage(CEASED)
        alpha = w.chains["alpha"]
        pkg = sent_withdrawal(w, sends["ret"])
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        assert verify_csw(vk, pub, pkg.csw.proof)
        # the two proofdata slots pin the wrapped message and the holder anchor
        assert len(pkg.csw.proofdata) == 2
        assert pkg.csw.proofdata[0] == message_digest(pkg.message)
        assert not verify_csw(vk, replace(pub, proofdata_root=EMPTY_ROOT), pkg.csw.proof)

    def test_another_finalized_state_anchor_never_verifies(self):
        # Real anchors, finalized for another epoch or another chain, with
        # the public input recomputed for them and signed again.
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        honest = anchor_of(w.mainchain, alpha.sc_id, w.mainchain.record(alpha.sc_id).last_epoch)
        assert verify_csw(vk, *resigned(alpha, pkg.csw, anchor=honest))
        for anchor in (anchor_of(w.mainchain, alpha.sc_id, 0), anchor_of(w.mainchain, w.chains["beta"].sc_id, 1)):
            assert anchor != honest
            assert verify_csw(vk, *resigned(alpha, pkg.csw, anchor=anchor)) is False

    def test_another_finalized_holder_anchor_never_verifies(self):
        w, sends = run_stage(CEASED)
        alpha, gamma = w.chains["alpha"], w.chains["gamma"]
        pkg = sent_withdrawal(w, sends["ret"])
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        bundle = CswBundle.decode(pkg.csw.proof.body)
        evidence = bundle.return_evidence
        assert evidence.holder == anchor_of(w.mainchain, gamma.sc_id, 1)
        mc = w.mainchain
        for holder in (evidence.holder, anchor_of(mc, gamma.sc_id, 0), anchor_of(mc, w.chains["beta"].sc_id, 1)):
            # The second proofdata slot names the holder's block.
            proofdata = (bundle.proofdata[0], canonical_digest(holder.header))
            pub, proof = resigned(alpha, pkg.csw, proofdata=proofdata, return_evidence=replace(evidence, holder=holder))
            assert verify_csw(vk, pub, proof) is (holder == evidence.holder)

    def test_sent_record_needs_a_finalized_holder_epoch(self):
        w, sends = run_stage(CEASED)
        gamma = w.chains["gamma"]
        cert, verdict = gamma.close_epoch()  # tip 9: epoch 3 is closed, not yet finalized
        assert verdict.accepted and cert.epoch_id == 3
        assert w.mainchain.finalized_cert(gamma.sc_id, 3) is None
        with pytest.raises(CertificateNotConfirmed, match=f"no finalized certificate for sidechain {gamma.sc_id} epoch 3"):
            sent_withdrawal(w, sends["ret"], holder_epoch_id=3)

    def test_embedded_certificate_with_trailing_bytes_is_rejected(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        cert = CswBundle.decode(pkg.csw.proof.body).anchor.cert.encode()
        body = pkg.csw.proof.body
        assert body.count(enc_bytes(cert)) == 1
        padded = body.replace(enc_bytes(cert), enc_bytes(cert + b"\x00"))
        assert not verify_csw(vk, pub, Proof(scheme_id=pkg.csw.proof.scheme_id, body=padded))

    def test_single_bit_flips_never_verify(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        body = pkg.csw.proof.body
        for pos in range(0, len(body), max(1, len(body) // 64)):
            flipped = bytes(body[:pos]) + bytes([body[pos] ^ 0x01]) + bytes(body[pos + 1 :])
            assert not verify_csw(vk, pub, Proof(scheme_id=pkg.csw.proof.scheme_id, body=flipped))

    def test_prove_rejects_entity_outside_committed_state(self):
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        kept = held(w.states["alpha"], "KEEP")
        ghost = replace(kept, amount=49)
        committed = alpha.finalized_epoch().committed
        anchor = anchor_of(w.mainchain, alpha.sc_id, w.mainchain.record(alpha.sc_id).last_epoch)
        claim = CswClaim(kind=ClaimKind.PAYLOAD_ENTITY, entity_bytes=ghost.encode(), committed=committed, anchor=anchor)
        nullifier = csw_nullifier(alpha.sc_id, canonical_digest(ghost))
        pub = make_csw_input(
            w.mainchain.csw_anchor_hash(alpha.sc_id), nullifier, w.actor("bob").public, 0, claim_proofdata(claim)
        )
        with pytest.raises(EntityNotInState):
            prove_csw(alpha.csw_signer, alpha.sc_id, pub, claim)

    def test_prove_self_checks_its_own_bundle(self):
        # An input that disagrees with the claim must be caught at prove time.
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        kept = held(w.states["alpha"], "KEEP")
        committed = alpha.finalized_epoch().committed
        anchor = anchor_of(w.mainchain, alpha.sc_id, w.mainchain.record(alpha.sc_id).last_epoch)
        claim = CswClaim(
            kind=ClaimKind.PAYLOAD_ENTITY, entity_bytes=kept.encode(), committed=committed, anchor=anchor
        )
        pub = make_csw_input(
            hash_bytes(b"wrong-anchor"),
            csw_nullifier(alpha.sc_id, canonical_digest(kept)),
            w.actor("bob").public,
            0,
            claim_proofdata(claim),
        )
        with pytest.raises(InconsistentWitness):
            prove_csw(alpha.csw_signer, alpha.sc_id, pub, claim)


class TestRedeemEvidence:
    def test_certificate_sourced_roundtrip(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        proof = build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
        assert redeem_verifies(w, sent.message, sent.payload, proof)
        decoded = RedeemProof.read(ByteReader(proof.encode()))
        assert decoded == proof

    def test_uncommitted_message_cannot_be_proved(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        stranger = replace(sent.message, payload_hash=hash_bytes(b"other"))
        with pytest.raises(MessageNotCommitted):
            build_redeem_proof(w.mainchain, alpha.sc_id, 0, stranger, alpha.epochs[0].tree)

    def test_unfinalized_epoch_cannot_be_proved(self):
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        sa = w.states["alpha"]
        ti = sa.issue("TOK", True, w.actor("alice").public, hash_bytes(b"t"), amount=5)
        message, tx, verdict = make_send(alpha, w.actor("alice"), ti, beta, w.actor("bob"))
        assert verdict.accepted
        w.mainchain.advance_blocks(2)
        cert, v = alpha.close_epoch()
        assert v.accepted
        # certificate submitted but the window has not rolled over yet
        with pytest.raises(CertificateNotConfirmed):
            build_redeem_proof(w.mainchain, alpha.sc_id, 0, message, alpha.epochs[0].tree)

    def test_tampered_evidence_fails(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        proof = build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
        payload = sent.payload
        assert not redeem_verifies(w, sent.message, payload + b"\x00", proof)
        assert not redeem_verifies(w, sent.message, payload, replace(proof, msg_tree_root=hash_bytes(b"r")))
        assert not redeem_verifies(w, sent.message, payload, replace(proof, block_hash=hash_bytes(b"b")))
        bad_chain = replace(proof.commitment_path, posting_digest=hash_bytes(b"p"))
        assert not redeem_verifies(w, sent.message, payload, replace(proof, commitment_path=bad_chain))
        moved = replace(proof.msg_path, leaf_index=proof.msg_path.leaf_index + 1)
        assert not redeem_verifies(w, sent.message, payload, replace(proof, msg_path=moved))

    def test_another_finalized_anchor_never_verifies(self):
        # beta's certificate, finalized in the same block, in place of alpha's.
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        proof = build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
        anchor = anchor_of(w.mainchain, w.chains["beta"].sc_id, 0)
        swapped = replace(
            proof,
            commitment_path=CommitmentChain(posting_digest=canonical_digest(anchor.cert), segments=(anchor.stc_path,)),
            block_hash=canonical_digest(anchor.header),
        )
        assert redeem_verifies(w, sent.message, sent.payload, proof)
        assert redeem_verifies(w, sent.message, sent.payload, swapped) is False

    def test_wrong_source_chain_fails(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        proof = build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
        lying = replace(sent.message, sending_sc_id=w.chains["beta"].sc_id)
        assert not redeem_verifies(w, lying, sent.payload, proof)

    def test_csw_sourced_roundtrip(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_block()
        proof = build_csw_redeem_proof(w.mainchain, alpha.sc_id, pkg.csw.nullifier, pkg.message)
        assert proof.source_kind == SourceKind.CSW
        assert redeem_verifies(w, pkg.message, pkg.payload, proof, (alpha.sc_id, pkg.csw.nullifier))
        assert RedeemProof.read(ByteReader(proof.encode())) == proof

    def test_csw_lookup_failures_raise(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        with pytest.raises(CswNotFound):
            build_csw_redeem_proof(w.mainchain, alpha.sc_id, pkg.csw.nullifier, pkg.message)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_block()
        with pytest.raises(MessageMismatch):
            build_csw_redeem_proof(
                w.mainchain, alpha.sc_id, pkg.csw.nullifier, replace(pkg.message, payload_hash=hash_bytes(b"no"))
            )

    def test_csw_sourced_tamper_fails(self):
        w, _ = run_stage(CEASED)
        alpha, pkg = w.chains["alpha"], held_withdrawal(w)
        assert w.mainchain.submit_csw(pkg.csw).accepted
        w.mainchain.advance_block()
        proof = build_csw_redeem_proof(w.mainchain, alpha.sc_id, pkg.csw.nullifier, pkg.message)
        csw_ref = (alpha.sc_id, pkg.csw.nullifier)
        assert not redeem_verifies(w, pkg.message, pkg.payload + b"!", proof, csw_ref)
        assert not redeem_verifies(w, pkg.message, pkg.payload, replace(proof, msg_tree_root=EMPTY_ROOT), csw_ref)
        truncated = replace(proof.commitment_path, segments=proof.commitment_path.segments[:1])
        assert not redeem_verifies(w, pkg.message, pkg.payload, replace(proof, commitment_path=truncated), csw_ref)


class TestRedeemVerifierIsPure:
    def test_same_arguments_give_the_same_result_after_the_chain_advances(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        tx = make_redeem_tx(w.mainchain, alpha, 0, sent.message, sent.payload, sent.sender_sig, w.actor("bob"))
        elsewhere = replace(tx, proof=replace(tx.proof, block_hash=w.mainchain.get_block(4).hash))
        calls = [(*beta.resolve_redeem(t), t.message, t.payload, t.proof) for t in (tx, elsewhere)]
        assert [verify_redeem(*args) for args in calls] == [True, False]
        for sc in (alpha, beta):
            assert sc.close_epoch()[1].accepted
        w.mainchain.advance_blocks(5)
        assert [verify_redeem(*args) for args in calls] == [True, False]

    def test_no_verifier_takes_the_mainchain(self):
        verifiers = {
            name: fn for name, fn in vars(proofs).items()
            if name.startswith("verify_") and getattr(fn, "__module__", None) == proofs.__name__
        }
        assert sorted(verifiers) == ["verify_csw", "verify_redeem", "verify_wcert"]
        for name, fn in verifiers.items():
            for param in inspect.signature(fn).parameters.values():
                assert param.name != "mainchain", name
                assert "Mainchain" not in str(param.annotation), name


class TestForeignWithdrawal:
    def test_foreign_claim_forces_issuer_destination(self):
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        foreign = canonical_digest(held(final_ledger(alpha), "FOR"))
        pkg = withdraw_foreign(alpha, w.actor("alice"), foreign, w.actor("bob").public)
        assert pkg.message.receiving_sc_id == w.chains["beta"].sc_id
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        assert verify_csw(vk, pub, pkg.csw.proof)


class TestOneAnchorPerFinalizedCertificate:
    """The settlement chain builds each finalized certificate's StateAnchor
    once, when it seals the settling block; all evidence reads that object."""

    def test_redeem_proofs_of_one_epoch_share_the_anchor(self):
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        tree = alpha.epochs[0].tree
        anchor = w.mainchain.finalized_cert(alpha.sc_id, 0)
        assert anchor_of(w.mainchain, alpha.sc_id, 0) is anchor_of(w.mainchain, alpha.sc_id, 0) is anchor
        first, second = (build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, tree) for _ in range(2))
        assert first.commitment_path.segments[0] is second.commitment_path.segments[0] is anchor.stc_path

    def test_every_withdrawal_of_a_ceased_chain_carries_the_same_anchor(self, monkeypatch):
        claims = []
        prove = sidechain_module.prove_csw
        monkeypatch.setattr(sidechain_module, "prove_csw", lambda *args: claims.append(args[-1]) or prove(*args))
        runner = Runner(load_scenario(SCENARIO_DIR / "ceased_flows.json"))
        assert runner.run()["ok"]
        mc, chains = runner.world.mainchain, runner.world.chains
        alpha, gamma = chains["alpha"].sc_id, chains["gamma"].sc_id
        assert [claim.kind for claim in claims] == [ClaimKind.PAYLOAD_ENTITY, ClaimKind.PAYLOAD_ENTITY, ClaimKind.SENT_RECORD]
        last = mc.finalized_cert(alpha, mc.record(alpha).last_epoch)
        assert all(claim.anchor is last for claim in claims)
        assert claims[-1].return_evidence.holder is mc.finalized_cert(gamma, 1)

    @pytest.mark.parametrize("name", ["ceased_flows.json", "golden_fungible_roundtrip.json", "replay_attack.json"])
    def test_a_world_builds_one_anchor_per_finalized_certificate(self, monkeypatch, name):
        built = []
        make = mainchain_module.StateAnchor
        monkeypatch.setattr(mainchain_module, "StateAnchor", lambda **fields: built.append(make(**fields)) or built[-1])
        runner = Runner(load_scenario(SCENARIO_DIR / name))
        runner.run()
        finalized = list(runner.world.mainchain._finalized.values())
        assert finalized and len(built) == len(finalized)
        assert all(a is b for a, b in zip(built, finalized))
