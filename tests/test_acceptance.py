"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (run with ``-s`` to see them all) and
fails with the collected problems if its criterion does not hold. Expected
values are hand-derived and written out literally; nothing is captured from
the implementation's own output.
"""
from dataclasses import replace
from pathlib import Path

import pytest

from worlds import ceased_world, committed_world

from mitto import vectors
from mitto.cli import main as cli_main
from mitto.fuzz import run_fuzz
from mitto.harness import render_report, run_scenario
from mitto.hashing import Digest, MerklePath, hash_bytes
from mitto.keys import KeyPair, PubKey
from mitto.messages import MSG_TYPE_TOKEN_TRANSFER, CscpMessage, Proof, message_digest
from mitto.proofs import (
    build_csw_redeem_proof,
    build_redeem_proof,
    make_csw_input,
    make_wcert_input,
    verify_csw,
    verify_redeem,
    verify_wcert,
)
from mitto.scenario import load_scenario
from mitto.tokens import CswPackage, make_csw_redeem_tx, withdraw_foreign

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FUZZ_SEED = 20260817
FUZZ_COUNT = 1000

RULE_IDS = (
    "send-1", "send-2", "send-3a", "send-3b", "send-3c", "send-3d", "send-3e", "send-4",
    "redeem-1", "redeem-2a", "redeem-2b", "redeem-3",
    "redeem-4a", "redeem-4b", "redeem-4c", "redeem-4d", "redeem-4e", "redeem-5",
    "redeem-6", "redeem-7",
    "malformed-payload", "unregistered-msg-type",
)


def verdict(number: int, description: str, problems: list[str]) -> None:
    state = "PASS" if not problems else "FAIL"
    print(f"criterion {number}: {state} - {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


@pytest.fixture(scope="module")
def fuzz_corpus():
    return run_fuzz(FUZZ_SEED, FUZZ_COUNT)


def test_criterion_1_golden_path():
    problems = []
    report = run_scenario(load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json"))
    if not report["ok"]:
        problems.append(f"golden run not ok: {report['violations']}")
    final = report["final"]
    alice = KeyPair.from_label("actor", 7, "alice").public.hex()
    bob = KeyPair.from_label("actor", 7, "bob").public.hex()

    alpha = final["chains"]["alpha"]["state"]["handlers"]["1"]
    expected_sent = [
        {"receiver_sc_id": 2, "token_name": "WBT", "fungibility": True, "amount": 60}
    ]
    if alpha["s_sent"] != expected_sent:
        problems.append(f"alpha sent records {alpha['s_sent']} != {expected_sent}")
    alpha_holdings = [(t["token_name"], t["owner"], t["amount"]) for t in alpha["s_tks"]]
    if alpha_holdings != [("WBT", alice, 40)]:
        problems.append(f"alpha holdings {alpha_holdings}")

    beta = final["chains"]["beta"]["state"]["handlers"]["1"]
    beta_holdings = [
        (t["token_name"], t["issuer_sc_id"], t["owner"], t["amount"]) for t in beta["s_tks"]
    ]
    if beta_holdings != [("WBT", 1, bob, 60)]:
        problems.append(f"beta holdings {beta_holdings}")
    if beta["s_sent"] != []:
        problems.append(f"beta unexpectedly has sent records: {beta['s_sent']}")
    if alpha["issued"] != {"WBT": 100}:
        problems.append(f"alpha issued totals {alpha['issued']}")
    verdict(1, "golden round trip ends in the hand-derived state", problems)


def test_criterion_2_replay_suite():
    problems = []
    probes = 0
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        report = run_scenario(load_scenario(path))
        for step in report["steps"]:
            if step["op"] in ("redeem", "csw_redeem") and step["outcome"]["accepted"]:
                probes += 1
                if step.get("replay") != {"accepted": False, "reason": "AlreadyRedeemed"}:
                    problems.append(f"{path.stem} step {step['index']}: redeem replay {step.get('replay')}")
            if step["op"] == "csw" and step["outcome"]["accepted"]:
                probes += 1
                if step.get("replay") != {"accepted": False, "reason": "NullifierReused"}:
                    problems.append(f"{path.stem} step {step['index']}: csw replay {step.get('replay')}")
        for violation in report["violations"]:
            if "replay-safety" in violation:
                problems.append(f"{path.stem}: {violation}")
    if probes < 10:
        problems.append(f"only {probes} replay probes across bundled scenarios")
    verdict(2, f"every accepted redeem/withdrawal resubmission rejected ({probes} probes)", problems)


def test_criterion_3_no_forgery(fuzz_corpus):
    problems = []
    if fuzz_corpus["violations"]:
        problems.extend(fuzz_corpus["violations"][:5])
    over = fuzz_corpus["over_return"]
    if over["rejected"] != over["attempts"] or over["attempts"] != FUZZ_COUNT:
        problems.append(f"over-return probes: {over}")
    verdict(3, f"{FUZZ_COUNT} adversarial traces, no forged return accepted, conservation held", problems)


def test_criterion_4_routing_restriction(fuzz_corpus):
    problems = []
    routing = fuzz_corpus["routing"]
    if routing["rejected"] != routing["attempts"] or routing["attempts"] != FUZZ_COUNT:
        problems.append(f"routing probes: {routing}")
    verdict(4, "foreign-to-third sends rejected in 100% of fuzzed traces", problems)


def test_criterion_5_vector_coverage(tmp_path):
    problems = []
    if cli_main(["vectors", str(tmp_path)]) != 0:
        problems.append("vector emission failed")
    if cli_main(["vectors", str(tmp_path)]) != 0:
        problems.append("vector re-check failed")
    rejected_rules = {
        case.expect.get("rule") for case in vectors.CASES if not case.expect["accepted"]
    }
    for rule in RULE_IDS:
        if rule not in rejected_rules:
            problems.append(f"no rejected vector for {rule}")
    accepted_ops = {case.op for case in vectors.CASES if case.expect["accepted"]}
    if accepted_ops != {"send", "redeem", "wcert", "csw", "csw_redeem"}:
        problems.append(f"accepted vectors cover only {sorted(accepted_ops)}")
    verdict(5, f"{len(vectors.CASES)} vectors reproduce exactly, all rule ids covered", problems)


def test_criterion_6_ceasing_suite():
    problems = []

    # (a) Silence through a full window ceases the chain; certificates are
    # then rejected for good.
    w = ceased_world()
    alpha, beta, gamma = (w.chains[k] for k in ("alpha", "beta", "gamma"))
    if w.mc.get_status(alpha.sc_id)["status"] != "ceased":
        problems.append("silent chain did not cease")
    for label in ("beta", "gamma"):
        if w.mc.get_status(w.chains[label].sc_id)["status"] != "alive":
            problems.append(f"{label} should be alive")
    late = w.mc.submit_certificate(alpha.build_certificate())
    if late.accepted or late.reason != "SidechainCeased":
        problems.append(f"post-cease certificate verdict {late}")

    # (b) The three withdrawal flows run end to end in a bundled scenario.
    for name in ("ceased_silence", "ceased_flows"):
        report = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        if not report["ok"]:
            problems.append(f"{name}: {report['violations'] or report['failure']}")

    # (c) A foreign token withdrawn from the ceased chain is redeemable on
    # its issuer and nowhere else; elsewhere the token rules end it at
    # redeem-1.
    pkg = withdraw_foreign(alpha, w.alice, w.foreign_digest, w.alice.public)
    if not w.mc.submit_csw(pkg.csw).accepted:
        problems.append("honest foreign withdrawal not accepted")
    w.mc.advance_block()
    on_issuer = beta.accept_csw_redeem(make_csw_redeem_tx(w.mc, pkg, w.alice))
    if not on_issuer.accepted:
        problems.append(f"issuer rejected the foreign withdrawal: {on_issuer}")

    w2 = ceased_world()
    alpha2, gamma2 = w2.chains["alpha"], w2.chains["gamma"]
    state = alpha2.finalized_epoch().snapshots[MSG_TYPE_TOKEN_TRANSFER]
    instance = state.s_tks[w2.foreign_digest]
    payload = instance.encode()
    message = CscpMessage(
        sending_sc_id=alpha2.sc_id,
        receiving_sc_id=gamma2.sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=instance.owner,
        receiver_id=w2.alice.public,
        payload_hash=hash_bytes(payload),
    )
    csw = alpha2.build_message_withdrawal(payload, message, receiver=w2.alice.public)
    if not w2.mc.submit_csw(csw).accepted:
        problems.append("crafted third-chain withdrawal not accepted at settlement")
    w2.mc.advance_block()
    crafted = make_csw_redeem_tx(
        w2.mc,
        CswPackage(csw, message, payload, sender_sig=w2.alice.sign(message_digest(message)), instance=instance),
        w2.alice,
    )
    elsewhere = gamma2.accept_csw_redeem(crafted)
    if elsewhere.accepted or elsewhere.rule != "redeem-1":
        problems.append(f"third chain verdict {elsewhere}, wanted redeem-1")
    verdict(6, "ceasing, the three withdrawal flows, and issuer-only redemption", problems)


class _Sweep:
    def __init__(self):
        self.total = 0
        self.survivors: list[str] = []

    def expect_false(self, name: str, result: bool) -> None:
        self.total += 1
        if result:
            self.survivors.append(name)


def _flipped(value: bytes):
    for i in range(len(value)):
        for bit in (0, 7):
            yield i, bit, value[:i] + bytes([value[i] ^ (1 << bit)]) + value[i + 1:]


def _digest_flips(value: Digest):
    for i, bit, raw in _flipped(value):
        yield f"byte {i} bit {bit}", Digest(raw)


def _path_flips(path: MerklePath):
    for k in range(len(path.siblings)):
        yield f"leaf_index bit {k}", replace(path, leaf_index=path.leaf_index ^ (1 << k))
    for n, sibling in enumerate(path.siblings):
        for note, digest in _digest_flips(sibling.digest):
            mutated = path.siblings[:n] + (replace(sibling, digest=digest),) + path.siblings[n + 1:]
            yield f"sibling {n} {note}", replace(path, siblings=mutated)


def test_criterion_7_commitment_soundness():
    problems = []
    sweep = _Sweep()

    # Certificate fixture: the finalized epoch-0 certificate and the exact
    # public input the settlement chain rebuilds for it.
    cw = committed_world()
    alpha = cw.chains["alpha"]
    record = cw.mc.record(alpha.sc_id)
    cert = alpha.epochs[0].submitted_cert
    anchor = cw.mc.get_block(record.epoch_end(0)).hash
    w_vk = record.registration.wcert_vk
    w_input = make_wcert_input(cert.quality, cert.bt_list, anchor, cert.proofdata)
    if not verify_wcert(w_vk, w_input, cert.proof):
        problems.append("honest certificate fixture does not verify")
    for k in range(8):
        sweep.expect_false(
            f"wcert quality bit {k}",
            verify_wcert(w_vk, replace(w_input, quality=w_input.quality ^ (1 << k)), cert.proof),
        )
    for field in ("bt_list_root", "last_block_hash", "proofdata_root"):
        for note, digest in _digest_flips(getattr(w_input, field)):
            sweep.expect_false(
                f"wcert input {field} {note}",
                verify_wcert(w_vk, replace(w_input, **{field: digest}), cert.proof),
            )
    for i, bit, body in _flipped(cert.proof.body):
        sweep.expect_false(
            f"wcert proof body byte {i} bit {bit}",
            verify_wcert(w_vk, w_input, Proof(scheme_id=cert.proof.scheme_id, body=body)),
        )

    # Redeem evidence fixture: the committed in-flight send.
    payload = cw.send_tx.payload
    rp = build_redeem_proof(cw.mc, alpha.sc_id, 0, cw.message, alpha.epochs[0].tree)
    if not verify_redeem(cw.mc, cw.message, payload, rp):
        problems.append("honest redeem fixture does not verify")
    for field in ("msg_tree_root", "block_hash"):
        for note, digest in _digest_flips(getattr(rp, field)):
            sweep.expect_false(
                f"redeem {field} {note}",
                verify_redeem(cw.mc, cw.message, payload, replace(rp, **{field: digest})),
            )
    for note, digest in _digest_flips(rp.commitment_path.posting_digest):
        mutated = replace(rp, commitment_path=replace(rp.commitment_path, posting_digest=digest))
        sweep.expect_false(f"redeem posting {note}", verify_redeem(cw.mc, cw.message, payload, mutated))
    for note, path in _path_flips(rp.msg_path):
        sweep.expect_false(
            f"redeem msg_path {note}",
            verify_redeem(cw.mc, cw.message, payload, replace(rp, msg_path=path)),
        )
    for n, segment in enumerate(rp.commitment_path.segments):
        for note, path in _path_flips(segment):
            segments = rp.commitment_path.segments[:n] + (path,) + rp.commitment_path.segments[n + 1:]
            mutated = replace(rp, commitment_path=replace(rp.commitment_path, segments=segments))
            sweep.expect_false(
                f"redeem segment {n} {note}",
                verify_redeem(cw.mc, cw.message, payload, mutated),
            )
    for i, bit, raw in _flipped(payload):
        sweep.expect_false(
            f"redeem payload byte {i} bit {bit}",
            verify_redeem(cw.mc, cw.message, raw, rp),
        )

    # Withdrawal fixture: a foreign-token claim out of the ceased chain.
    zw = ceased_world()
    z_alpha = zw.chains["alpha"]
    pkg = withdraw_foreign(z_alpha, zw.alice, zw.foreign_digest, zw.alice.public)
    c_vk = zw.mc.record(z_alpha.sc_id).registration.csw_vk
    c_input = make_csw_input(
        last_cert_block_hash=zw.mc.csw_anchor_hash(z_alpha.sc_id),
        nullifier=pkg.csw.nullifier,
        receiver=pkg.csw.receiver,
        amount=pkg.csw.amount,
        proofdata=pkg.csw.proofdata,
    )
    if not verify_csw(c_vk, c_input, pkg.csw.proof):
        problems.append("honest withdrawal fixture does not verify")
    for field in ("last_cert_block_hash", "nullifier", "proofdata_root"):
        for note, digest in _digest_flips(getattr(c_input, field)):
            sweep.expect_false(
                f"csw input {field} {note}",
                verify_csw(c_vk, replace(c_input, **{field: digest}), pkg.csw.proof),
            )
    for i, bit, raw in _flipped(c_input.receiver):
        sweep.expect_false(
            f"csw input receiver byte {i} bit {bit}",
            verify_csw(c_vk, replace(c_input, receiver=PubKey(raw)), pkg.csw.proof),
        )
    for k in range(8):
        sweep.expect_false(
            f"csw amount bit {k}",
            verify_csw(c_vk, replace(c_input, amount=c_input.amount ^ (1 << k)), pkg.csw.proof),
        )
    for i, bit, body in _flipped(pkg.csw.proof.body):
        sweep.expect_false(
            f"csw proof body byte {i} bit {bit}",
            verify_csw(c_vk, c_input, Proof(scheme_id=pkg.csw.proof.scheme_id, body=body)),
        )

    # Withdrawal-sourced redeem evidence for the same claim.
    assert zw.mc.submit_csw(pkg.csw).accepted
    zw.mc.advance_block()
    crp = build_csw_redeem_proof(zw.mc, pkg.csw.ledger_id, pkg.csw.nullifier, pkg.message)
    if not verify_redeem(zw.mc, pkg.message, pkg.payload, crp):
        problems.append("honest withdrawal-redeem fixture does not verify")
    for field in ("msg_tree_root", "block_hash"):
        for note, digest in _digest_flips(getattr(crp, field)):
            sweep.expect_false(
                f"csw-redeem {field} {note}",
                verify_redeem(zw.mc, pkg.message, pkg.payload, replace(crp, **{field: digest})),
            )
    for n, segment in enumerate(crp.commitment_path.segments):
        for note, path in _path_flips(segment):
            segments = crp.commitment_path.segments[:n] + (path,) + crp.commitment_path.segments[n + 1:]
            mutated = replace(crp, commitment_path=replace(crp.commitment_path, segments=segments))
            sweep.expect_false(
                f"csw-redeem segment {n} {note}",
                verify_redeem(zw.mc, pkg.message, pkg.payload, mutated),
            )

    if sweep.total < 500:
        problems.append(f"only {sweep.total} mutations swept, need at least 500")
    for survivor in sweep.survivors[:10]:
        problems.append(f"mutation still verifies: {survivor}")
    verdict(7, f"{sweep.total} single-bit mutations, all verify false", problems)


def test_criterion_8_determinism():
    problems = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_scenario(path)
        first = render_report(run_scenario(scenario))
        second = render_report(run_scenario(scenario))
        if first != second:
            problems.append(f"{path.stem}: reports differ between runs")
    verdict(8, "byte-identical reports for every bundled scenario", problems)
