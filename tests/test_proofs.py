"""Proof scheme behavior: inputs, witness bundles, evidence verification.

The crucial property throughout: verification must depend on every byte the
prover committed to, and a verifier must answer False (never crash) for any
malformed proof body.
"""
import hashlib
import inspect
from dataclasses import replace

import pytest

from verifier_checks import CSW_BODY, body_checks, declared_check_ids
from worlds import (
    CEASED,
    COMMITTED,
    SCENARIO_DIR,
    SHADOWED_CHECKS,
    held,
    held_withdrawal,
    make_send,
    redeem_refusal,
    redeem_verifies,
    run_stage,
    two_chain_world,
    withdrawals_in_one_block,
)

from mitto import mainchain as mainchain_module, proofs, sidechain as sidechain_module
from mitto.encoding import ByteReader, canonical_digest, enc_bytes, enc_u32
from mitto.harness import Runner
from mitto.hashing import EMPTY_ROOT, MerklePath, build_merkle, hash_bytes, merkle_path, verify_path
from mitto.keys import KeyPair
from mitto.messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    SCHEME_SIM_MERKLE,
    BlockHeader,
    CeasedSidechainWithdrawal,
    CscpMessage,
    Proof,
    VerificationKey,
    WithdrawalCertificate,
    message_digest,
    redeem_auth_digest,
)
from mitto.proofs import (
    CertificateNotConfirmed,
    ClaimKind,
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
    ReturnEvidence,
    StateAnchor,
    WcertPublicInput,
    anchor_of,
    build_csw_redeem_proof,
    build_redeem_proof,
    claim_proofdata,
    csw_nullifier,
    explain_csw,
    explain_redeem,
    explain_wcert,
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
from mitto.tokens import SentRecord, TokenInstance, final_ledger, make_redeem_tx, withdraw_foreign, withdraw_native_sent


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
        witness = (quality, self.BT, hash_bytes(b"last-block"), self.PD)
        return make_wcert_input(*witness), prove_wcert(SIGNER, *witness)

    def test_honest_proof_verifies(self):
        pub, proof = self.make()
        assert verify_wcert(VK, pub, proof)

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
            proof = Proof(scheme_id=pkg.csw.proof.scheme_id, body=flipped)
            assert not verify_csw(vk, pub, proof)
            assert explain_csw(vk, pub, proof) in body_checks(CswBundle, CSW_BODY, body, flipped), pos

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
        assert not redeem_verifies(w, sent.message, payload, replace(proof, block_hash=hash_bytes(b"b")))
        assert not redeem_verifies(w, sent.message, payload, replace(proof, segments=proof.segments * 2))
        moved = replace(proof.msg_path, leaf_index=proof.msg_path.leaf_index + 1)
        assert not redeem_verifies(w, sent.message, payload, replace(proof, msg_path=moved))

    def test_another_finalized_anchor_never_verifies(self):
        # The path of beta's certificate, finalized in the same block, in
        # place of alpha's: the fold starts from alpha's certificate.
        w, sends = run_stage(COMMITTED)
        sent = sends["sent"]
        alpha = w.chains["alpha"]
        proof = build_redeem_proof(w.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
        anchor = anchor_of(w.mainchain, w.chains["beta"].sc_id, 0)
        assert canonical_digest(anchor.header) == proof.block_hash
        swapped = replace(proof, segments=(anchor.stc_path,))
        assert redeem_verifies(w, sent.message, sent.payload, proof)
        assert redeem_verifies(w, sent.message, sent.payload, swapped) is False
        assert redeem_refusal(w, sent.message, sent.payload, swapped) == "redeem.block-commitment"

    def test_another_included_withdrawal_never_verifies(self):
        # The paths of alpha's other withdrawal, included in the same block,
        # in place of this one's: the fold starts from the named withdrawal.
        w, _ = run_stage(CEASED)
        kept, other = withdrawals_in_one_block(w)
        proof, elsewhere = (
            build_csw_redeem_proof(w.mainchain, pkg.csw.ledger_id, pkg.csw.nullifier, pkg.message)
            for pkg in (kept, other)
        )
        assert elsewhere.block_hash == proof.block_hash and elsewhere.segments != proof.segments
        swapped = replace(proof, segments=elsewhere.segments)
        claim = (kept.message, kept.payload)
        assert redeem_verifies(w, *claim, proof, kept.csw.nullifier)
        assert redeem_verifies(w, *claim, swapped, kept.csw.nullifier) is False
        assert redeem_refusal(w, *claim, swapped, kept.csw.nullifier) == "redeem.block-commitment"

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
        assert len(proof.segments) == 2 and proof.msg_path == MerklePath(leaf_index=0, siblings=())
        assert redeem_verifies(w, pkg.message, pkg.payload, proof, pkg.csw.nullifier)
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
        nullifier = pkg.csw.nullifier
        assert not redeem_verifies(w, pkg.message, pkg.payload + b"!", proof, nullifier)
        moved = MerklePath(leaf_index=1, siblings=())
        assert not redeem_verifies(w, pkg.message, pkg.payload, replace(proof, msg_path=moved), nullifier)
        truncated = replace(proof, segments=proof.segments[:1])
        assert not redeem_verifies(w, pkg.message, pkg.payload, truncated, nullifier)


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
        assert first.segments[0] is second.segments[0] is anchor.stc_path

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


# Crafted inputs, one per named check. The verifiers read no chain, so each
# input is built from its parts alone, every root and path derived from them.

ALPHA, BETA, GAMMA = 1, 2, 3
ALICE = KeyPair.from_label("actor", 0, "alice").public
BOB = KeyPair.from_label("actor", 0, "bob").public
RECORD = SentRecord(receiver_sc_id=GAMMA, token_name="SENT", fungibility=True, amount=100)
RETURNED = TokenInstance("SENT", True, ALPHA, ALICE, hash_bytes(b"sent"), amount=100)
PAYLOAD = RETURNED.encode()
MESSAGE = CscpMessage(ALPHA, BETA, MSG_TYPE_TOKEN_TRANSFER, ALICE, BOB, hash_bytes(PAYLOAD))


def transfer(sending: int, receiving: int, payload: bytes) -> CscpMessage:
    return replace(MESSAGE, sending_sc_id=sending, receiving_sc_id=receiving, payload_hash=hash_bytes(payload))


def certificate(ledger_id: int, proofdata: tuple) -> WithdrawalCertificate:
    return WithdrawalCertificate(ledger_id, 0, 1, (), proofdata, Proof(scheme_id=SCHEME_SIM_MERKLE, body=b""))


def anchored(cert: WithdrawalCertificate) -> StateAnchor:
    """``cert`` as the one leaf of a block's sidechain commitment."""
    stc = build_merkle([canonical_digest(cert)])
    return StateAnchor(cert, merkle_path(stc, 0), BlockHeader(height=1, parent_hash=EMPTY_ROOT, stc_root=stc.root))


def reanchored(bundle: CswBundle, **cert_changes) -> CswBundle:
    return replace(bundle, anchor=anchored(replace(bundle.anchor.cert, **cert_changes)))


def sent_record_bundle(record=RECORD, returned=PAYLOAD, ret=None, committed=None, embedded=None) -> CswBundle:
    """alpha's withdrawal of ``record``: gamma's return ``ret`` of the
    ``returned`` instance, which gamma's certificate commits (or commits
    ``committed`` in its place), and alpha's onward ``embedded`` message."""
    ret = ret or transfer(GAMMA, ALPHA, returned)
    embedded = embedded or transfer(ALPHA, BETA, returned)
    epoch = build_merkle([message_digest(committed or ret)])
    holder = anchored(certificate(GAMMA, (epoch.root, EMPTY_ROOT)))
    entity = hash_bytes(record.encode())
    state = CommittedState.from_digests([entity])
    return CswBundle(
        sc_id=ALPHA,
        kind=ClaimKind.SENT_RECORD,
        entity_bytes=record.encode(),
        message=embedded,
        proofdata=(message_digest(embedded), canonical_digest(holder.header)),
        state_path=state.path_for(entity),
        state_root=state.root,
        anchor=anchored(certificate(ALPHA, (EMPTY_ROOT, state.root))),
        return_evidence=ReturnEvidence(ret, merkle_path(epoch, 0), holder, returned),
        signature=b"",
    )


def withdrawal(bundle: CswBundle, **input_changes) -> dict:
    """``explain_csw``'s arguments for ``bundle``, signed over the input its
    anchor, entity and proofdata imply, that input then changed by
    ``input_changes``."""
    nullifier = csw_nullifier(bundle.sc_id, hash_bytes(bundle.entity_bytes))
    pub = make_csw_input(canonical_digest(bundle.anchor.header), nullifier, BOB, 0, bundle.proofdata)
    body = replace(bundle, signature=SIGNER.sign(canonical_digest(pub))).encode()
    return {"vk": VK, "public_input": replace(pub, **input_changes), "proof": Proof(SCHEME_SIM_MERKLE, body)}


def certificate_redeem() -> dict:
    """``explain_redeem``'s arguments for MESSAGE, leaf 0 of alpha's epoch
    tree, whose certificate is its block's one commitment leaf."""
    epoch = build_merkle([message_digest(MESSAGE), hash_bytes(b"another message")])
    cert = certificate(ALPHA, (epoch.root, EMPTY_ROOT))
    stc = build_merkle([canonical_digest(cert)])
    proof = RedeemProof(merkle_path(epoch, 0), (merkle_path(stc, 0),), EMPTY_ROOT)
    return {"stc_root": stc.root, "posting": cert, "message": MESSAGE, "payload": PAYLOAD, "proof": proof}


def withdrawal_redeem(**posting_changes) -> dict:
    """``explain_redeem``'s arguments for MESSAGE embedded in alpha's
    withdrawal (changed by ``posting_changes``), its block's one transaction."""
    csw = CeasedSidechainWithdrawal(
        ALPHA, BOB, 0, EMPTY_ROOT, (message_digest(MESSAGE),), Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"")
    )
    csw = replace(csw, **posting_changes)
    txs = build_merkle([canonical_digest(csw)])
    stc = build_merkle([EMPTY_ROOT, txs.root])
    empty_path = MerklePath(leaf_index=0, siblings=())
    proof = RedeemProof(empty_path, (merkle_path(txs, 0), merkle_path(stc, 1)), EMPTY_ROOT)
    return {"stc_root": stc.root, "posting": csw, "message": MESSAGE, "payload": PAYLOAD, "proof": proof}


def changed(arguments: dict, name: str, **changes) -> dict:
    """``arguments`` with the value of ``name`` changed by ``changes``."""
    return {**arguments, name: replace(arguments[name], **changes)}


def honest_inputs() -> dict:
    witness = (5, (b"bt",), hash_bytes(b"block"), (hash_bytes(b"pd"),))
    wcert = {"vk": VK, "public_input": make_wcert_input(*witness), "proof": prove_wcert(SIGNER, *witness)}
    return {
        "wcert": (explain_wcert, wcert),
        "csw": (explain_csw, withdrawal(sent_record_bundle())),
        "redeem": (explain_redeem, certificate_redeem()),
        "csw-redeem": (explain_redeem, withdrawal_redeem()),
    }


def check_cases() -> dict:
    """Each check id -> the explainer and arguments of an input that it is
    the first check to refuse."""
    wcert = honest_inputs()["wcert"][1]
    sent = sent_record_bundle()
    cert, csw = certificate_redeem(), withdrawal_redeem()
    segments = cert["proof"].segments
    another = b"another payload"
    cases = {
        "wcert.scheme": {**wcert, "vk": replace(VK, scheme_id=2)},
        "wcert.decode": changed(wcert, "proof", body=b""),
        "wcert.bt-list-root": changed(wcert, "public_input", bt_list_root=EMPTY_ROOT),
        "wcert.proofdata-root": changed(wcert, "public_input", proofdata_root=EMPTY_ROOT),
        "wcert.signature": changed(wcert, "public_input", quality=6),
    }
    cases = {check_id: (explain_wcert, arguments) for check_id, arguments in cases.items()}
    withdrawals = {
        "csw.scheme": {**withdrawal(sent), "vk": replace(VK, scheme_id=2)},
        "csw.decode": changed(withdrawal(sent), "proof", body=b""),
        "csw.nullifier": withdrawal(sent, nullifier=EMPTY_ROOT),
        "csw.proofdata-length": withdrawal(replace(sent, kind=ClaimKind.PAYLOAD_ENTITY)),
        "csw.message-digest": withdrawal(replace(sent, message=transfer(ALPHA, BETA, another))),
        "csw.amount": withdrawal(sent, amount=1),
        "csw.message-sender": withdrawal(sent_record_bundle(embedded=transfer(GAMMA, BETA, PAYLOAD))),
        "csw.empty-message-slot": withdrawal(replace(
            sent, kind=ClaimKind.PAYLOAD_ENTITY, message=None, proofdata=(hash_bytes(b"slot"),), return_evidence=None
        )),
        "csw.proofdata-root": withdrawal(sent, proofdata_root=EMPTY_ROOT),
        "csw.state-path": withdrawal(replace(sent, state_root=EMPTY_ROOT)),
        "csw.state-root": withdrawal(reanchored(sent, proofdata=(EMPTY_ROOT, EMPTY_ROOT))),
        "anchor.ledger": withdrawal(reanchored(sent, ledger_id=GAMMA)),
        "anchor.stc-path": withdrawal(
            replace(sent, anchor=replace(sent.anchor, header=replace(sent.anchor.header, stc_root=EMPTY_ROOT)))
        ),
        "anchor.block-hash": withdrawal(sent, last_cert_block_hash=EMPTY_ROOT),
        "csw.return-evidence": withdrawal(replace(sent, return_evidence=None)),
        "csw.no-return-evidence": withdrawal(
            replace(sent, kind=ClaimKind.PAYLOAD_ENTITY, proofdata=sent.proofdata[:1])
        ),
        "csw.signature": withdrawal(sent, receiver=ALICE),
        "return.decode": withdrawal(sent_record_bundle(returned=b"not an instance")),
        "return.receiving-chain": withdrawal(sent_record_bundle(ret=transfer(GAMMA, BETA, PAYLOAD))),
        "return.sending-chain": withdrawal(sent_record_bundle(ret=transfer(BETA, ALPHA, PAYLOAD))),
        "commits.msg-path": withdrawal(sent_record_bundle(committed=transfer(GAMMA, ALPHA, another))),
        "return.payload": withdrawal(sent_record_bundle(ret=transfer(GAMMA, ALPHA, another))),
        "return.embedded-payload": withdrawal(sent_record_bundle(embedded=transfer(ALPHA, BETA, another))),
        "return.issuer": withdrawal(sent_record_bundle(returned=replace(RETURNED, issuer_sc_id=GAMMA).encode())),
        "return.token-name": withdrawal(sent_record_bundle(returned=replace(RETURNED, token_name="OTHER").encode())),
        "return.fungibility": withdrawal(sent_record_bundle(
            returned=replace(RETURNED, fungibility=False, amount=None, token_id=1).encode()
        )),
        "return.amount": withdrawal(sent_record_bundle(returned=replace(RETURNED, amount=101).encode())),
        "return.token-id": withdrawal(sent_record_bundle(
            record=SentRecord(receiver_sc_id=GAMMA, token_name="SENT", fungibility=False, token_id=1),
            returned=replace(RETURNED, fungibility=False, amount=None, token_id=2).encode(),
        )),
    }
    cases |= {check_id: (explain_csw, arguments) for check_id, arguments in withdrawals.items()}
    redeems = {
        "redeem.block": {**cert, "stc_root": None},
        "redeem.posting": {**cert, "posting": None},
        "redeem.posting-sender": changed(cert, "message", sending_sc_id=GAMMA),
        "redeem.payload": {**cert, "payload": another},
        "redeem.segments": changed(cert, "proof", segments=segments * 2),
        "redeem.msg-path": changed(csw, "proof", msg_path=MerklePath(leaf_index=1, siblings=())),
        "redeem.posting-message": withdrawal_redeem(proofdata=(EMPTY_ROOT,)),
        "redeem.posting-amount": withdrawal_redeem(amount=1),
        "redeem.segment-fold": changed(cert, "proof", segments=(MerklePath(leaf_index=1, siblings=()),)),
        "redeem.block-commitment": {**cert, "stc_root": EMPTY_ROOT},
    }
    return cases | {check_id: (explain_redeem, arguments) for check_id, arguments in redeems.items()}


#: Each explainer's verifier. Arguments are kept in parameter order, so a
#: verifier takes them positionally, as the verify memo's wrapper needs.
VERIFIERS = {explain_wcert: verify_wcert, explain_csw: verify_csw, explain_redeem: verify_redeem}


class TestNamedChecks:
    def test_the_crafted_inputs_verify_as_built(self):
        for name, (explain, arguments) in honest_inputs().items():
            assert explain(**arguments) is None, name
            assert VERIFIERS[explain](*arguments.values()) is True, name

    @pytest.mark.parametrize("posting,evidence", [("redeem", "csw-redeem"), ("csw-redeem", "redeem")])
    def test_the_postings_type_chooses_the_evidence_it_takes(self, posting, evidence):
        """A certificate's evidence is one segment and a message path, a
        withdrawal's two segments and an empty path; the other kind's
        evidence is refused at its segment count."""
        inputs = honest_inputs()
        arguments = {**inputs[posting][1], "proof": inputs[evidence][1]["proof"]}
        assert explain_redeem(**arguments) == "redeem.segments"

    def test_every_declared_check_is_the_first_to_refuse_an_input(self):
        """A check that no input reaches, or that an earlier check always
        pre-empts, fails here: no crafted input names it."""
        cases = check_cases()
        refused_by = {check_id: explain(**arguments) for check_id, (explain, arguments) in cases.items()}
        assert refused_by == {check_id: check_id for check_id in declared_check_ids()}
        verified = [check_id for check_id, (explain, args) in cases.items() if VERIFIERS[explain](*args.values())]
        assert verified == []

    @pytest.mark.parametrize("gamma", [False, True], ids=["no-gamma", "gamma-finalized-beside"])
    def test_the_gate_refuses_a_shadowed_checks_input_before_it(self, gamma):
        """``check_cases``' input for ``redeem.posting-sender``, alpha's
        certificate redeem on beta with the message's sending chain changed
        to GAMMA and signed by the receiver, is refused by beta's gate at a
        check it reaches first: no posting, or gamma's own certificate, which
        does not commit the message. A gate that reaches the check fails this."""
        chains = COMMITTED["chains"] + ([{"label": "gamma", "epoch_length": 2}] if gamma else [])
        world, sends = run_stage({**COMMITTED, "chains": chains})
        sent, bob = sends["sent"], world.actor("bob")
        honest = make_redeem_tx(
            world.mainchain, world.chains["alpha"], sent.epoch_id, sent.message, sent.payload, sent.sender_sig, bob
        )
        message = replace(sent.message, sending_sc_id=GAMMA)
        tx = replace(honest, message=message, receiver_signature=bob.sign(redeem_auth_digest(message, sent.payload)))
        verdict = world.chains["beta"].accept_redeem(tx)
        assert verdict.to_json() == {"accepted": False, "reason": "ProofInvalid", "rule": "redeem-7"}
        refused_by = redeem_refusal(world, message, tx.payload, tx.proof)
        assert refused_by == ("commits.msg-path" if gamma else "redeem.posting")
        assert refused_by in SHADOWED_CHECKS["redeem.posting-sender"]
