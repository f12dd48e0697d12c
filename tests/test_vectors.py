"""Conformance vectors: engine agreement, coverage, and file integrity."""
import importlib
import json

import pytest

from worlds import RULE_IDS, SHADOWED

from mitto import vectors
from mitto.harness import Runner
from mitto.messages import SendTx, message_digest
from mitto.scenario import TAMPERS, parse_scenario
from mitto.tokens import make_redeem_tx
from mitto.verdict import Verdict

GATE_REASONS = (
    "BadSignature", "WrongSender", "PayloadMismatch", "SelfSend",
    "AlreadyRedeemed", "WrongReceivingChain",
    "WrongEpoch", "WindowClosed", "LowerQuality", "SidechainCeased",
    "SidechainActive", "NullifierReused", "ProofInvalid",
)


WORLD_CASES = [case for case in vectors.CASES if case.layer == "world"]


@pytest.mark.parametrize("case", vectors.CASES, ids=lambda c: c.id)
def test_engine_reproduces_table(case):
    assert vectors.run_case(case) == case.expect


@pytest.mark.parametrize("case", WORLD_CASES, ids=lambda c: c.id)
def test_world_case_is_a_clean_scenario_fragment(case):
    assert case.run is None
    assert case.step == len(case.scenario["steps"]) - 1
    report = Runner(parse_scenario(case.scenario)).run()
    assert report["violations"] == []
    assert report["failure"] is None
    assert len(report["steps"]) == len(case.scenario["steps"])


def test_every_tamper_value_has_a_vector():
    used = {
        (step["op"], step["tamper"])
        for case in WORLD_CASES
        for step in case.scenario["steps"]
        if "tamper" in step
    }
    assert used == {(op, value) for op, values in TAMPERS.items() for value in values}


@pytest.mark.parametrize("module,gate,case_id", [
    ("mitto.sidechain", "verify_redeem", "world-redeem-7-tampered-proof"),
    ("mitto.mainchain", "verify_csw", "csw-bad-proof"),
])
def test_accepted_tampered_step_is_a_violation(monkeypatch, tmp_path, module, gate, case_id):
    vectors.emit_vectors(tmp_path)
    monkeypatch.setattr(importlib.import_module(module), gate, lambda *args: True)
    case = next(case for case in WORLD_CASES if case.id == case_id)
    step = case.scenario["steps"][case.step]
    report = Runner(parse_scenario(case.scenario)).run()
    finding = f"step {case.step}: tamper: {step['op']} with tamper {step['tamper']!r} was accepted"
    assert finding in report["violations"]
    assert report["ok"] is False
    observed = vectors.run_case(case)
    assert observed["accepted"] is True
    assert observed["violations"] == report["violations"]
    assert [p for p in vectors.check_vectors(tmp_path) if p.startswith(f"{case_id}:")]


#: alpha, byzantine, and beta are the chains of sc ids 1 and 2, which the
#: state-layer vectors name; epoch 0 is closed and finalized on both.
SC_IDS_1_AND_2 = {"name": "sc_ids_1_and_2", "seed": 1, "chains": [
    {"label": "alpha", "epoch_length": 2, "byzantine": True},
    {"label": "beta", "epoch_length": 2},
], "steps": [
    {"op": "advance_mainchain", "blocks": 2},
    {"op": "close_epoch"},
    {"op": "advance_mainchain", "blocks": 2},
]}


@pytest.mark.parametrize("rule", sorted(SHADOWED))
def test_shadowed_rule_input_is_refused_by_the_gate(monkeypatch, rule):
    """The state-layer vector's input, submitted through a world's gate, gets
    the verdict of the gate check that shadows the rule. Alpha commits a
    redeem's message, so its evidence is real and the gate reads past it."""
    (case,) = [case for case in vectors.CASES if case.layer == "state" and case.expect.get("rule") == rule]
    validated = []
    for name in ("_send_verdict", "_redeem_verdict"):
        monkeypatch.setattr(vectors, name, lambda *args: validated.append(args) or Verdict.ok())
    case.run()
    ((ledger, instance, message, signer),) = validated
    payload, signature = instance.encode(), signer.sign(message_digest(message))
    runner = Runner(parse_scenario(SC_IDS_1_AND_2))
    alpha = runner.world.chains["alpha"]
    if case.op == "redeem":
        alpha.fabricate_send(message, payload)
    assert runner.run()["ok"]
    world = runner.world
    gate = world.chains[world.label_by_sc_id(ledger.sc_id)]
    if case.op == "send":
        verdict = gate.accept_send(SendTx(message, payload, signature))
    else:
        receiver = vectors._actor("bob")
        verdict = gate.accept_redeem(make_redeem_tx(world.mainchain, alpha, 0, message, payload, signature, receiver))
    assert verdict.to_json() == SHADOWED[rule]


def test_case_ids_unique():
    ids = [case.id for case in vectors.CASES]
    assert len(ids) == len(set(ids))


def test_every_rule_id_has_a_rejected_vector():
    rejected_rules = {
        case.expect.get("rule")
        for case in vectors.CASES
        if not case.expect["accepted"]
    }
    for rule in RULE_IDS:
        assert rule in rejected_rules, f"no rejected vector for rule {rule}"


def test_every_gate_reason_has_a_vector():
    reasons = {case.expect["reason"] for case in vectors.CASES if not case.expect["accepted"]}
    for reason in GATE_REASONS:
        assert reason in reasons, f"no vector rejected with reason {reason}"


def test_every_operation_has_an_accepted_vector():
    accepted_ops = {case.op for case in vectors.CASES if case.expect["accepted"]}
    assert accepted_ops == {"send", "redeem", "wcert", "csw", "csw_redeem"}


def test_emit_then_check_round_trip(tmp_path):
    path = vectors.emit_vectors(tmp_path)
    assert path.name == vectors.FILE_NAME
    assert vectors.check_vectors(tmp_path) == []


def test_check_flags_tampered_expectation(tmp_path):
    path = vectors.emit_vectors(tmp_path)
    data = json.loads(path.read_text())
    data["cases"][0]["expect"] = {"accepted": False, "reason": "Nonsense"}
    path.write_text(json.dumps(data))
    problems = vectors.check_vectors(tmp_path)
    assert len(problems) == 1
    assert data["cases"][0]["id"] in problems[0]


def test_check_flags_missing_and_unknown_cases(tmp_path):
    path = vectors.emit_vectors(tmp_path)
    data = json.loads(path.read_text())
    dropped = data["cases"].pop()["id"]
    data["cases"].append({"id": "invented", "expect": {"accepted": True}})
    path.write_text(json.dumps(data))
    problems = vectors.check_vectors(tmp_path)
    assert any(dropped in p and "missing" in p for p in problems)
    assert any("invented" in p and "no such case" in p for p in problems)


def test_check_rejects_wrong_format(tmp_path):
    # ``true`` and ``1.0`` equal 1 in Python, and are still not format 1.
    for format_ in (9, True, 1.0, "1", None):
        (tmp_path / vectors.FILE_NAME).write_text(json.dumps({"format": format_, "cases": []}))
        problems = vectors.check_vectors(tmp_path)
        assert problems and "format" in problems[0], format_


def test_check_reports_an_unhashable_case_id(tmp_path):
    path = vectors.emit_vectors(tmp_path)
    data = json.loads(path.read_text())
    data["cases"][0]["id"] = [data["cases"][0]["id"]]
    path.write_text(json.dumps(data))
    assert any("no such case" in p for p in vectors.check_vectors(tmp_path))


def test_emitted_file_is_deterministic(tmp_path):
    a = vectors.emit_vectors(tmp_path / "a").read_bytes()
    b = vectors.emit_vectors(tmp_path / "b").read_bytes()
    assert a == b
