"""Conformance vectors: engine agreement, coverage, and file integrity."""
import json

import pytest

from mitto import vectors

RULE_IDS = (
    "send-1", "send-2", "send-3a", "send-3b", "send-3c", "send-3d", "send-3e", "send-4", "send-5",
    "redeem-1", "redeem-2a", "redeem-2b", "redeem-3",
    "redeem-4a", "redeem-4b", "redeem-4c", "redeem-4d", "redeem-4e", "redeem-5",
    "redeem-6", "redeem-7",
    "malformed-payload", "unregistered-msg-type",
)

GATE_REASONS = (
    "BadSignature", "WrongSender", "PayloadMismatch", "SelfSend",
    "AlreadyRedeemed", "WrongReceivingChain",
    "WrongEpoch", "WindowClosed", "LowerQuality", "SidechainCeased",
    "SidechainActive", "NullifierReused", "ProofInvalid",
)


@pytest.mark.parametrize("case", vectors.CASES, ids=lambda c: c.id)
def test_engine_reproduces_table(case):
    assert vectors.run_case(case) == case.expect


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
    (tmp_path / vectors.FILE_NAME).write_text(json.dumps({"format": 9, "cases": []}))
    problems = vectors.check_vectors(tmp_path)
    assert problems and "format" in problems[0]


def test_emitted_file_is_deterministic(tmp_path):
    a = vectors.emit_vectors(tmp_path / "a").read_bytes()
    b = vectors.emit_vectors(tmp_path / "b").read_bytes()
    assert a == b
