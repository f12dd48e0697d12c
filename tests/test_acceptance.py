"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (run with ``-s`` to see them all) and
fails with the collected problems if its criterion does not hold. Expected
values are hand-derived and written out literally; nothing is captured from
the implementation's own output, except the frozen-output pins, which record
bytes a change must not move.
"""
import json
import runpy
from dataclasses import replace
from pathlib import Path

from oracles import Findings, OracleRunner
from verifier_checks import CSW_BODY, WCERT_BODY, body_checks, declared_check_ids
from worlds import (
    CEASED, COMMITTED, RULE_IDS, SCENARIO_DIR, SHADOWED, UNREACHED, held, redeem_refusal, redeem_verifies, run_stage,
)

from mitto import vectors
from mitto.cli import main as cli_main
from mitto.encoding import canonical_digest
from mitto.harness import Runner, render_report
from mitto.hashing import Digest, MerklePath, hash_bytes
from mitto.keys import KeyPair, PubKey
from mitto.messages import MSG_TYPE_TOKEN_TRANSFER, CscpMessage, Proof, message_digest
from mitto.proofs import (
    CswBundle,
    WcertBundle,
    build_csw_redeem_proof,
    build_redeem_proof,
    explain_csw,
    explain_wcert,
    verify_csw,
    verify_wcert,
)
from mitto.scenario import STEP_OPS, load_scenario
from mitto.tokens import CswPackage, final_ledger, make_csw_redeem_tx, withdraw_foreign

ROOT = Path(__file__).resolve().parent.parent
FROZEN_PINS = ROOT / "tests" / "golden" / "frozen_outputs.json"
PIN_SCRIPT = ROOT / "scripts" / "pin_frozen_outputs.py"

def verdict(number: int, description: str, problems: list[str]) -> None:
    state = "PASS" if not problems else "FAIL"
    print(f"criterion {number}: {state} - {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def test_criterion_1_golden_path():
    problems = []
    report = Runner(load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json")).run()
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
        report = Runner(load_scenario(path)).run()
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
    traces = fuzz_corpus["traces"]
    over = fuzz_corpus["over_return"]
    if over["rejected"] != over["attempts"] or over["attempts"] != traces:
        problems.append(f"over-return probes: {over}")
    reach = fuzz_corpus["oracles"]
    verdict(
        3,
        f"{traces} adversarial traces, no forged return accepted, conservation held "
        f"(reach: {len(reach.accepted_ops)} of {len(STEP_OPS)} ops accepted, "
        f"{len(reach.rules)} of {len(RULE_IDS)} rule ids fired)",
        problems,
    )


def test_fuzz_corpus_keeps_its_reach(fuzz_corpus):
    """A floor under the corpus's reach: the ops it gets accepted and the
    rule ids it makes fire. A wider trace generator may only add to them."""
    reach = fuzz_corpus["oracles"]
    assert {"send", "fabricate_send", "advance_mainchain", "close_epoch", "redeem"} <= set(reach.accepted_ops)
    assert {"send-2", "redeem-2a"} <= set(reach.rules)


def test_criterion_4_routing_restriction(fuzz_corpus):
    problems = []
    routing = fuzz_corpus["routing"]
    if routing["rejected"] != routing["attempts"] or routing["attempts"] != fuzz_corpus["traces"]:
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
    world_rules = {case.expect.get("rule") for case in vectors.CASES if case.layer == "world"}
    for rule in RULE_IDS:
        if rule not in rejected_rules:
            problems.append(f"no rejected vector for {rule}")
        out_of_reach = rule in SHADOWED or rule in UNREACHED
        if out_of_reach and rule in world_rules:
            problems.append(f"{rule} is listed as out of a world's reach, yet a world-layer vector fires it")
        if not out_of_reach and rule not in world_rules:
            problems.append(f"{rule} fires in no world-layer vector")
    accepted_ops = {case.op for case in vectors.CASES if case.expect["accepted"]}
    if accepted_ops != {"send", "redeem", "wcert", "csw", "csw_redeem"}:
        problems.append(f"accepted vectors cover only {sorted(accepted_ops)}")
    verdict(5, f"{len(vectors.CASES)} vectors reproduce exactly, every rule id covered where it can fire", problems)


def test_criterion_6_ceasing_suite():
    problems = []

    # (a) Silence through a full window ceases the chain; certificates are
    # then rejected for good.
    w, _ = run_stage(CEASED)
    alpha, beta, gamma = (w.chains[k] for k in ("alpha", "beta", "gamma"))
    if w.mainchain.record(alpha.sc_id).status != "ceased":
        problems.append("silent chain did not cease")
    for label in ("beta", "gamma"):
        if w.mainchain.record(w.chains[label].sc_id).status != "alive":
            problems.append(f"{label} should be alive")
    late = w.mainchain.submit_certificate(alpha.build_certificate())
    if late.accepted or late.reason != "SidechainCeased":
        problems.append(f"post-cease certificate verdict {late}")

    # (b) The three withdrawal flows run end to end in a bundled scenario.
    for name in ("ceased_silence", "ceased_flows"):
        report = Runner(load_scenario(SCENARIO_DIR / f"{name}.json")).run()
        if not report["ok"]:
            problems.append(f"{name}: {report['violations'] or report['failure']}")

    # (c) A foreign token withdrawn from the ceased chain is redeemable on
    # its issuer and nowhere else; elsewhere the token rules end it at
    # redeem-1.
    foreign = canonical_digest(held(final_ledger(alpha), "FOR"))
    pkg = withdraw_foreign(alpha, w.actor("alice"), foreign, w.actor("alice").public)
    if not w.mainchain.submit_csw(pkg.csw).accepted:
        problems.append("honest foreign withdrawal not accepted")
    w.mainchain.advance_block()
    on_issuer = beta.accept_csw_redeem(make_csw_redeem_tx(w.mainchain, pkg, w.actor("alice")))
    if not on_issuer.accepted:
        problems.append(f"issuer rejected the foreign withdrawal: {on_issuer}")

    w2, _ = run_stage(CEASED)
    alpha2, gamma2 = w2.chains["alpha"], w2.chains["gamma"]
    state = final_ledger(alpha2)
    instance = held(state, "FOR")
    payload = instance.encode()
    message = CscpMessage(
        sending_sc_id=alpha2.sc_id,
        receiving_sc_id=gamma2.sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=instance.owner,
        receiver_id=w2.actor("alice").public,
        payload_hash=hash_bytes(payload),
    )
    csw = alpha2.build_message_withdrawal(payload, message, receiver=w2.actor("alice").public)
    if not w2.mainchain.submit_csw(csw).accepted:
        problems.append("crafted third-chain withdrawal not accepted at settlement")
    w2.mainchain.advance_block()
    crafted = make_csw_redeem_tx(
        w2.mainchain,
        CswPackage(csw, message, payload, w2.actor("alice").sign(message_digest(message)), instance),
        w2.actor("alice"),
    )
    elsewhere = gamma2.accept_csw_redeem(crafted)
    if elsewhere.accepted or elsewhere.rule != "redeem-1":
        problems.append(f"third chain verdict {elsewhere}, wanted redeem-1")
    verdict(6, "ceasing, the three withdrawal flows, and issuer-only redemption", problems)


class _Sweep:
    """Single-bit mutations: each must verify False, and the first check
    that refuses it must be one its group names."""

    def __init__(self):
        self.total = 0
        self.survivors: list[str] = []
        self.misattributed: list[str] = []
        self.named: set[str] = set()

    def expect_refused(self, name: str, by: set[str], verify, explain, *args) -> None:
        self.total += 1
        self.named |= by
        refused_by = explain(*args)
        if verify(*args) or refused_by is None:
            self.survivors.append(name)
        elif refused_by not in by:
            self.misattributed.append(f"{name} refused by {refused_by}, not {' or '.join(sorted(by))}")


def _flipped(value: bytes):
    for i in range(len(value)):
        for bit in (0, 7):
            yield i, bit, value[:i] + bytes([value[i] ^ (1 << bit)]) + value[i + 1:]


def _digest_flips(value: Digest):
    for i, bit, raw in _flipped(value):
        yield f"byte {i} bit {bit}", Digest(raw)


def _path_flips(path: MerklePath, index_checks: set[str], sibling_checks: set[str]):
    """Each one-bit change of ``path``, with the checks that refuse it: a
    flipped leaf-index bit disagrees with that level's side flag, a flipped
    sibling folds to another root."""
    for k in range(len(path.siblings)):
        yield f"leaf_index bit {k}", replace(path, leaf_index=path.leaf_index ^ (1 << k)), index_checks
    for n, (sibling, on_left) in enumerate(path.siblings):
        for note, digest in _digest_flips(sibling):
            mutated = path.siblings[:n] + ((digest, on_left),) + path.siblings[n + 1:]
            yield f"sibling {n} {note}", replace(path, siblings=mutated), sibling_checks


def test_criterion_7_commitment_soundness():
    problems = []
    sweep = _Sweep()

    # Certificate fixture: the finalized epoch-0 certificate and the exact
    # public input the settlement chain checks it against.
    cw, sends = run_stage(COMMITTED)
    alpha = cw.chains["alpha"]
    cert = cw.mainchain.finalized_cert(alpha.sc_id, 0).cert
    w_vk = cw.mainchain.record(alpha.sc_id).registration.wcert_vk
    w_input = cw.mainchain.wcert_input(cert)
    if not verify_wcert(w_vk, w_input, cert.proof):
        problems.append("honest certificate fixture does not verify")
    wcert = (verify_wcert, explain_wcert, w_vk)
    for k in range(8):
        mutated = replace(w_input, quality=w_input.quality ^ (1 << k))
        sweep.expect_refused(f"wcert quality bit {k}", {"wcert.signature"}, *wcert, mutated, cert.proof)
    wcert_input_checks = {
        "bt_list_root": {"wcert.bt-list-root"},
        "last_block_hash": {"wcert.signature"},
        "proofdata_root": {"wcert.proofdata-root"},
    }
    for field, by in wcert_input_checks.items():
        for note, digest in _digest_flips(getattr(w_input, field)):
            mutated = replace(w_input, **{field: digest})
            sweep.expect_refused(f"wcert input {field} {note}", by, *wcert, mutated, cert.proof)
    for i, bit, body in _flipped(cert.proof.body):
        sweep.expect_refused(
            f"wcert proof body byte {i} bit {bit}",
            body_checks(WcertBundle, WCERT_BODY, cert.proof.body, body),
            *wcert, w_input, Proof(scheme_id=cert.proof.scheme_id, body=body),
        )

    # Redeem evidence fixture: the committed in-flight send.
    sent = sends["sent"]
    payload = sent.payload
    rp = build_redeem_proof(cw.mainchain, alpha.sc_id, 0, sent.message, alpha.epochs[0].tree)
    if not redeem_verifies(cw, sent.message, payload, rp):
        problems.append("honest redeem fixture does not verify")
    redeem = (redeem_verifies, redeem_refusal, cw)
    # A block hash no block has resolves to no commitment root.
    for note, digest in _digest_flips(rp.block_hash):
        mutated = replace(rp, block_hash=digest)
        sweep.expect_refused(f"redeem block_hash {note}", {"redeem.block"}, *redeem, sent.message, payload, mutated)
    for note, path, by in _path_flips(rp.msg_path, {"commits.msg-path"}, {"commits.msg-path"}):
        mutated = replace(rp, msg_path=path)
        sweep.expect_refused(f"redeem msg_path {note}", by, *redeem, sent.message, payload, mutated)
    segment_checks = ({"redeem.segment-fold"}, {"redeem.block-commitment"})
    for n, segment in enumerate(rp.segments):
        for note, path, by in _path_flips(segment, *segment_checks):
            mutated = replace(rp, segments=rp.segments[:n] + (path,) + rp.segments[n + 1:])
            sweep.expect_refused(f"redeem segment {n} {note}", by, *redeem, sent.message, payload, mutated)
    for i, bit, raw in _flipped(payload):
        sweep.expect_refused(f"redeem payload byte {i} bit {bit}", {"redeem.payload"}, *redeem, sent.message, raw, rp)

    # Withdrawal fixture: a foreign-token claim out of the ceased chain.
    zw, _ = run_stage(CEASED)
    z_alpha = zw.chains["alpha"]
    foreign = canonical_digest(held(final_ledger(z_alpha), "FOR"))
    pkg = withdraw_foreign(z_alpha, zw.actor("alice"), foreign, zw.actor("alice").public)
    c_vk = zw.mainchain.record(z_alpha.sc_id).registration.csw_vk
    c_input = zw.mainchain.csw_input(pkg.csw)
    if not verify_csw(c_vk, c_input, pkg.csw.proof):
        problems.append("honest withdrawal fixture does not verify")
    csw = (verify_csw, explain_csw, c_vk)
    csw_input_checks = {
        "last_cert_block_hash": {"anchor.block-hash"},
        "nullifier": {"csw.nullifier"},
        "proofdata_root": {"csw.proofdata-root"},
    }
    for field, by in csw_input_checks.items():
        for note, digest in _digest_flips(getattr(c_input, field)):
            mutated = replace(c_input, **{field: digest})
            sweep.expect_refused(f"csw input {field} {note}", by, *csw, mutated, pkg.csw.proof)
    for i, bit, raw in _flipped(c_input.receiver):
        mutated = replace(c_input, receiver=PubKey(raw))
        sweep.expect_refused(f"csw input receiver byte {i} bit {bit}", {"csw.signature"}, *csw, mutated, pkg.csw.proof)
    for k in range(8):
        mutated = replace(c_input, amount=c_input.amount ^ (1 << k))
        sweep.expect_refused(f"csw amount bit {k}", {"csw.amount"}, *csw, mutated, pkg.csw.proof)
    for i, bit, body in _flipped(pkg.csw.proof.body):
        sweep.expect_refused(
            f"csw proof body byte {i} bit {bit}",
            body_checks(CswBundle, CSW_BODY, pkg.csw.proof.body, body),
            *csw, c_input, Proof(scheme_id=pkg.csw.proof.scheme_id, body=body),
        )

    # Withdrawal-sourced redeem evidence for the same claim.
    assert zw.mainchain.submit_csw(pkg.csw).accepted
    zw.mainchain.advance_block()
    crp = build_csw_redeem_proof(zw.mainchain, pkg.csw.ledger_id, pkg.csw.nullifier, pkg.message)
    nullifier = pkg.csw.nullifier
    if not redeem_verifies(zw, pkg.message, pkg.payload, crp, nullifier):
        problems.append("honest withdrawal-redeem fixture does not verify")
    csw_redeem = (redeem_verifies, redeem_refusal, zw, pkg.message)
    for note, digest in _digest_flips(crp.block_hash):
        mutated = replace(crp, block_hash=digest)
        by = {"redeem.block"}
        sweep.expect_refused(f"csw-redeem block_hash {note}", by, *csw_redeem, pkg.payload, mutated, nullifier)
    for n, segment in enumerate(crp.segments):
        for note, path, by in _path_flips(segment, *segment_checks):
            mutated = replace(crp, segments=crp.segments[:n] + (path,) + crp.segments[n + 1:])
            sweep.expect_refused(f"csw-redeem segment {n} {note}", by, *csw_redeem, pkg.payload, mutated, nullifier)
    # A nullifier no included withdrawal of the sending chain has resolves to no posting.
    for note, digest in _digest_flips(nullifier):
        sweep.expect_refused(f"csw-redeem nullifier {note}", {"redeem.posting"}, *csw_redeem, pkg.payload, crp, digest)
    for i, bit, raw in _flipped(pkg.payload):
        by = {"redeem.payload"}
        sweep.expect_refused(f"csw-redeem payload byte {i} bit {bit}", by, *csw_redeem, raw, crp, nullifier)

    if sweep.total < 500:
        problems.append(f"only {sweep.total} mutations swept, need at least 500")
    for survivor in sweep.survivors[:10]:
        problems.append(f"mutation still verifies: {survivor}")
    problems += sweep.misattributed[:10]
    if sweep.named - set(declared_check_ids()):
        problems.append(f"expected checks no verifier declares: {sorted(sweep.named - set(declared_check_ids()))}")
    verdict(7, f"{sweep.total} single-bit mutations, all verify false, each refused by its field's check", problems)


def test_redeem_verifier_agrees_with_reference_on_scenarios_and_vectors(monkeypatch):
    """Every world-layer vector runs under all three oracles and still
    reproduces its verdict; among them the redeem verifier both accepts and
    refuses (rule redeem-7). The bundled scenarios' one oracle pass is read
    in ``test_harness``."""
    oracles = Findings()
    monkeypatch.setattr(vectors, "Runner", lambda scenario: OracleRunner(scenario, oracles))
    world_cases = [case for case in vectors.CASES if case.layer == "world"]
    mismatched = [case.id for case in world_cases if vectors.run_case(case) != case.expect]
    assert oracles.disagreements == {}
    assert mismatched == [] and oracles.full_runs == len(world_cases)
    assert oracles.accepted_ops["redeem"] and oracles.rules["redeem-7"]


def test_redeem_verifier_agrees_with_reference_on_fuzz_corpus(fuzz_corpus):
    oracles = fuzz_corpus["oracles"]
    assert "redeem" not in oracles.disagreements
    assert oracles.accepted_ops["redeem"] >= fuzz_corpus["traces"]


def test_criterion_8_determinism():
    problems = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_scenario(path)
        first = render_report(Runner(scenario).run())
        second = render_report(Runner(scenario).run())
        if first != second:
            problems.append(f"{path.stem}: reports differ between runs")
    verdict(8, "byte-identical reports for every bundled scenario", problems)


def test_frozen_outputs_match_their_pins():
    """Every bundled report and dump, the emitted vector file and the
    ``mitto fuzz --traces 200 --seed 7`` output hash to the digests pinned
    in tests/golden/frozen_outputs.json. A change that moves one on purpose
    re-pins with scripts/pin_frozen_outputs.py."""
    pinned = json.loads(FROZEN_PINS.read_text())
    produced = runpy.run_path(str(PIN_SCRIPT))["frozen_outputs"]()
    problems = []
    for name in sorted(set(pinned["scenarios"]) | set(produced["scenarios"])):
        for output in ("report", "dump"):
            if pinned["scenarios"].get(name, {}).get(output) != produced["scenarios"].get(name, {}).get(output):
                problems.append(f"{name}: {output} differs from its pin")
    for name in sorted((set(pinned) | set(produced)) - {"scenarios"}):
        if pinned.get(name) != produced.get(name):
            problems.append(f"{name} differs from its pin")
    verdict(8, "reports, dumps, vector file and fuzz output match their pinned digests", problems)
