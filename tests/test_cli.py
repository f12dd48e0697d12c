"""Command-line behavior: exit codes, report files, dumps, directory runs, fuzz, vectors."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from worlds import SCENARIO_DIR

from mitto.cli import main
from mitto.mainchain import Mainchain
from mitto.scenario import MAX_ADVANCE_BLOCKS, MAX_SCENARIO_BLOCKS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = str(SCENARIO_DIR / "golden_fungible_roundtrip.json")
FROZEN = json.loads((ROOT / "tests" / "golden" / "frozen_outputs.json").read_text())


def src_env() -> dict:
    """The environment for a fresh interpreter that imports ``mitto`` from ``src``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def write_scenario(tmp_path, obj, name="s.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_golden_exit_zero(capsys):
    assert main(["run", GOLDEN, "--json-report", "/dev/null"]) == 0
    out = capsys.readouterr().out
    assert "golden_fungible_roundtrip" in out
    assert "ok" in out


def test_run_prints_report_to_stdout_by_default(capsys):
    assert main(["run", GOLDEN]) == 0
    out = capsys.readouterr().out
    body, summary = out.rsplit("\n", 2)[0], out.rsplit("\n", 2)[1]
    report = json.loads(body)
    assert report["ok"] is True
    assert "0 violations" in summary


def test_run_json_report_written(tmp_path):
    target = tmp_path / "report.json"
    assert main(["run", GOLDEN, "--json-report", str(target)]) == 0
    report = json.loads(target.read_text())
    assert report["scenario"] == "golden_fungible_roundtrip"
    assert report["ok"] is True


def test_run_dump_written(tmp_path):
    dump_dir = tmp_path / "dumps"
    assert main(["run", GOLDEN, "--dump", str(dump_dir), "--json-report", "/dev/null"]) == 0
    state = json.loads((dump_dir / "golden_fungible_roundtrip.state.json").read_text())
    assert set(state) == {"mainchain", "chains"}


@pytest.mark.parametrize("name", ["sub/x", "../escaped", "nul\0byte"], ids=["subdir", "parent", "nul"])
def test_run_dump_refuses_a_name_that_is_not_a_file_name(tmp_path, capsys, name):
    scenario = json.loads((SCENARIO_DIR / "nft_roundtrip.json").read_text())
    path = write_scenario(tmp_path, {**scenario, "name": name})
    dump_dir = tmp_path / "dumps" / "inner"
    report = tmp_path / "report.json"
    assert main(["run", path, "--dump", str(dump_dir), "--json-report", str(report)]) == 2
    assert "not a plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.json"]


@pytest.mark.parametrize("what", ["dump", "json-report"])
def test_run_exits_two_when_it_cannot_write_its_output(tmp_path, capsys, what):
    scenario = json.loads((SCENARIO_DIR / "nft_roundtrip.json").read_text())
    if what == "dump":
        path = write_scenario(tmp_path, {**scenario, "name": "n" * 300})
        args, target = ["--dump", str(tmp_path / "dumps"), "--json-report", "/dev/null"], tmp_path / "dumps"
    else:
        path = write_scenario(tmp_path, scenario)
        target = tmp_path / "missing" / "report.json"
        args = ["--json-report", str(target)]
    assert main(["run", path, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {target}") and "Traceback" not in err


def test_run_expectation_failure_exit_one(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "fails",
        "seed": 2,
        "chains": [
            {"label": "alpha", "epoch_length": 2,
             "issuances": [{"name": "T", "fungible": True, "amount": 5, "owner": "a"}]},
            {"label": "beta", "epoch_length": 2},
        ],
        "steps": [
            {"op": "send", "from": "alpha", "to": "beta", "name": "T", "amount": 5,
             "owner": "a", "receiver": "b", "expect": {"accepted": False}},
        ],
    })
    assert main(["run", path, "--json-report", "/dev/null"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_run_parse_error_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path, {"name": "x"})
    assert main(["run", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_run_missing_file_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "parse error" in capsys.readouterr().err


def _sealing_scenario(extra_blocks: int) -> dict:
    """A scenario whose steps may seal ``MAX_SCENARIO_BLOCKS`` blocks, a
    cease_by_silence counted at its cap, then ``extra_blocks`` more and a
    step that seals none."""
    full, rest = divmod(MAX_SCENARIO_BLOCKS - MAX_ADVANCE_BLOCKS, MAX_ADVANCE_BLOCKS)
    advances = [MAX_ADVANCE_BLOCKS] * full + [blocks for blocks in (rest, extra_blocks) if blocks]
    return {
        "name": "sealing",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2}],
        "steps": [{"op": "cease_by_silence", "chain": "alpha"}]
        + [{"op": "advance_mainchain", "blocks": blocks} for blocks in advances]
        + [{"op": "assert", "chain": "alpha"}],
    }


def test_scenario_over_the_block_budget_exit_two_before_any_block(tmp_path, capsys, monkeypatch):
    """One block over the budget is a parse error naming the step that
    crosses it; a scenario at the budget validates."""
    path = write_scenario(tmp_path, _sealing_scenario(0), "at.json")
    assert main(["validate", path]) == 0
    over = _sealing_scenario(1)
    path = write_scenario(tmp_path, over, "over.json")

    def seal(self):
        raise AssertionError("a block was sealed")

    monkeypatch.setattr(Mainchain, "advance_block", seal)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    message = f"steps[{len(over['steps']) - 2}]: the steps so far may seal {MAX_SCENARIO_BLOCKS + 1} blocks,"
    assert err.count("parse error") == 2 and err.count(message) == 2 and "Traceback" not in err


UNDECODABLE = {
    "not_utf8": b'{"name": "\xff"}',
    "too_deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_undecodable_scenario_is_a_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "s.json"
    path.write_bytes(UNDECODABLE[kind])
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"parse error: {path}: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_undecodable_scenario_does_not_stop_a_directory_run(tmp_path, capsys, kind):
    (tmp_path / "a_golden.json").write_text(Path(GOLDEN).read_text())
    (tmp_path / "b_bad.json").write_bytes(UNDECODABLE[kind])
    assert main(["run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "b_bad.json: parse error" in captured.err
    assert "golden_fungible_roundtrip: " in captured.out and "1/2 scenarios passed" in captured.out


def test_run_scenario_error_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "runtime",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2}, {"label": "beta", "epoch_length": 2}],
        "steps": [
            {"op": "send", "from": "alpha", "to": "beta", "name": "NOPE", "amount": 1,
             "owner": "a", "receiver": "b"},
        ],
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "scenario error: step 0 (send): chain alpha: no instance of 'NOPE'" in err


def test_run_scenario_error_writes_its_report(tmp_path, capsys):
    """The report of a run that stops at a step it cannot execute keeps the
    verdicts given before that step."""
    path = write_scenario(tmp_path, {
        "name": "runtime",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2}, {"label": "beta", "epoch_length": 2}],
        "steps": [
            {"op": "advance_mainchain", "blocks": 1},
            {"op": "send", "from": "alpha", "to": "beta", "name": "NOPE", "amount": 1,
             "owner": "a", "receiver": "b"},
            {"op": "advance_mainchain", "blocks": 1},
        ],
    })
    target = tmp_path / "report.json"
    assert main(["run", path, "--json-report", str(target)]) == 2
    message = "step 1 (send): chain alpha: no instance of 'NOPE' held by that owner"
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    report = json.loads(target.read_text())
    assert [step["outcome"] for step in report["steps"]] == [
        {"accepted": True, "reason": "Accepted"},
        {"accepted": False, "reason": "ScenarioError"},
    ]
    assert report["failure"] == {"step": 1, "invariant": "scenario", "trace": message}
    assert report["ok"] is False


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Two interpreters with different string-hash seeds write the same
    report bytes for a scenario that walks sets and dicts of every kind."""
    reports = []
    for hash_seed in ("0", "1"):
        target = tmp_path / f"report-{hash_seed}.json"
        done = subprocess.run(
            [sys.executable, "-m", "mitto.cli", "run", str(SCENARIO_DIR / "ceased_flows.json"),
             "--json-report", str(target)],
            env=dict(src_env(), PYTHONHASHSEED=hash_seed), capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        reports.append(target.read_bytes())
    assert reports[0] == reports[1]


def _cli_in_a_fresh_interpreter(*args: str) -> set[str]:
    """Run ``python -m mitto.cli ARGS`` in a new interpreter; the ``mitto``
    modules it imported, read from ``-X importtime``'s lines."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mitto.cli", *args],
        env=src_env(), capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in imported if name.startswith("mitto.")}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_run_loads_no_input_generator_and_writes_the_pinned_report(tmp_path):
    """``mitto run`` imports neither ``fuzz`` nor ``vectors``, and its report
    is byte for byte the one ``tests/golden/frozen_outputs.json`` pins."""
    target = tmp_path / "report.json"
    imported = _cli_in_a_fresh_interpreter("run", str(SCENARIO_DIR / "ceased_flows.json"), "--json-report", str(target))
    assert "mitto.harness" in imported
    assert imported.isdisjoint({"mitto.fuzz", "mitto.vectors"})
    assert _sha256(target) == FROZEN["scenarios"]["ceased_flows.json"]["report"]


def test_vectors_load_their_module_on_demand_and_emit_the_pinned_file(tmp_path):
    imported = _cli_in_a_fresh_interpreter("vectors", str(tmp_path))
    assert "mitto.vectors" in imported and "mitto.fuzz" not in imported
    assert _sha256(tmp_path / "vectors.json") == FROZEN["vectors.json"]


def test_send_amount_of_nft_exit_two(tmp_path, capsys):
    """A send that gives an amount for a name its owner holds only as NFTs
    parses, but has no instance to pick: a scenario error, not a crash."""
    path = write_scenario(tmp_path, {
        "name": "nft-amount",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2,
                    "issuances": [{"name": "N", "fungible": False, "token_id": 7, "owner": "a"}]},
                   {"label": "beta", "epoch_length": 2}],
        "steps": [
            {"op": "send", "from": "alpha", "to": "beta", "name": "N", "amount": 3,
             "owner": "a", "receiver": "b"},
        ],
    })
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "scenario error: step 0 (send): chain alpha: that owner holds 'N' only as NFTs" in err
    assert "Traceback" not in err


_ART = {"name": "ART", "fungible": False, "token_id": 1, "owner": "a"}


@pytest.mark.parametrize("beta_issuances,steps,message", [
    ([], [{"op": "issue", "chain": "alpha", **_ART}], "step 0 (issue): chain alpha: 'ART' id 1 was already issued"),
    ([], [{"op": "issue", "chain": "beta", **dict(_ART, token_id=2)}],
     "step 0 (issue): chain beta: token name 'ART' is already registered as fungibility=False issuer="),
    ([dict(_ART, token_id=2)], [], "chain beta: token name 'ART' is already registered as fungibility=False"),
    ([{"name": "ART", "fungible": True, "amount": 5, "owner": "a"}], [], "chain beta: token name 'ART'"),
], ids=["step-duplicate-id", "step-other-issuer", "chain-other-issuer", "chain-other-fungibility"])
def test_issuance_conflict_exit_two(tmp_path, capsys, beta_issuances, steps, message):
    """An issuance the token name registry refuses is a scenario error,
    whether a step or a chain's ``issuances`` makes it."""
    path = write_scenario(tmp_path, {
        "name": "conflict",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2, "issuances": [_ART]},
                   {"label": "beta", "epoch_length": 2, "issuances": beta_issuances}],
        "steps": steps,
    })
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("expect,message", [
    ({"accepted": "true"}, "steps[0].expect: field 'accepted' must be bool, got str"),
    ({"accepted": True, "reason": 5}, "steps[0].expect: field 'reason' must be str, got int"),
])
def test_mistyped_expect_exit_two(tmp_path, capsys, expect, message):
    path = write_scenario(tmp_path, {
        "name": "t", "seed": 1, "chains": [{"label": "alpha", "epoch_length": 2}],
        "steps": [{"op": "advance_mainchain", "blocks": 1, "expect": expect}],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert message in capsys.readouterr().err


def test_empty_chain_label_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "t", "seed": 1, "chains": [{"label": "", "epoch_length": 2}, {"label": "sc0", "epoch_length": 2}],
        "steps": [],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert "chains[0]: field 'label' must not be empty" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", GOLDEN]) == 0
    assert "ok:" in capsys.readouterr().out
    bad = write_scenario(tmp_path, {"name": "x", "seed": 1, "chains": [], "steps": []})
    assert main(["validate", bad]) == 2


@pytest.mark.parametrize("field,value,message", [
    ("tamper", "teleport", "unknown tamper 'teleport'"),
    ("tampr", "wrong_epoch", "unknown field 'tampr'"),
    ("op", "teleport", "unknown op 'teleport', expected one of issue, send, fabricate_send, close_epoch, "
                       "advance_mainchain, cease_by_silence, redeem, csw, csw_redeem, notify, assert\n"),
    ("chains", "some", "field 'chains' must be \"all\" or a non-empty list"),
    ("expect", {}, "field 'expect' must be a non-empty object"),
])
def test_unknown_tamper_or_step_field_exit_two(tmp_path, capsys, field, value, message):
    obj = {
        "name": "t", "seed": 1, "chains": [{"label": "alpha", "epoch_length": 2}],
        "steps": [{"op": "close_epoch", field: value}],
    }
    path = write_scenario(tmp_path, obj)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert f"steps[0]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("issuance", [
    {"name": "BIG", "fungible": True, "amount": 2**64, "owner": "a"},
    {"name": "NEG", "fungible": False, "token_id": -1, "owner": "a"},
])
def test_out_of_range_integer_exit_two(tmp_path, capsys, issuance):
    path = write_scenario(tmp_path, {
        "name": "overflow",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2, "issuances": [issuance]},
                   {"label": "beta", "epoch_length": 2}],
        "steps": [],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert "parse error" in capsys.readouterr().err


def _two_max_issuances(steps) -> dict:
    """ROADMAP item 4's setup: two issuances of 2^64-1 units of one name."""
    return {
        "name": "u64_sent_record",
        "seed": 2,
        "chains": [
            {"label": "alpha", "epoch_length": 2, "issuances": [
                {"name": "G", "fungible": True, "amount": 2**64 - 1, "owner": "a", "data": data}
                for data in ("one", "two")
            ]},
            {"label": "beta", "epoch_length": 2},
        ],
        "steps": steps,
    }


def test_sent_record_overflow_is_a_send_5_verdict(tmp_path, capsys):
    send = {"op": "send", "from": "alpha", "to": "beta", "name": "G", "amount": 2**64 - 1,
            "owner": "a", "receiver": "b"}
    path = write_scenario(tmp_path, _two_max_issuances([
        {**send, "expect": {"accepted": True}},
        {**send, "expect": {"accepted": False, "reason": "HandlerRejected", "rule": "send-5"}},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch", "expect": {"accepted": True}},
    ]))
    report_path = tmp_path / "report.json"
    assert main(["run", path, "--json-report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["violations"] == []
    assert report["steps"][1]["outcome"]["rule"] == "send-5"


def test_wallet_merge_overflow_exit_two(tmp_path, capsys):
    obj = _two_max_issuances([
        {"op": "send", "from": "alpha", "to": "beta", "name": "G", "amount": 2**64 - 1,
         "owner": "a", "receiver": "b"},
    ])
    for issuance in obj["chains"][0]["issuances"]:
        issuance["amount"] = 2**64 - 2
    assert main(["run", write_scenario(tmp_path, obj)]) == 2
    assert "cannot merge" in capsys.readouterr().err


def test_fuzz_mode(capsys):
    assert main(["fuzz", "--traces", "3", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "3 traces" in out
    assert "routing 3/3 rejected" in out


def test_fuzz_count_must_be_positive(capsys):
    assert main(["fuzz", "--traces", "0"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**70)])
def test_fuzz_seed_beyond_u64_exit_two(capsys, seed):
    with pytest.raises(SystemExit) as exit_:
        main(["fuzz", "--traces", "1", "--seed", seed])
    assert exit_.value.code == 2
    assert "--seed: must fit in 64 bits" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_seed_beyond_u64_exit_two(capsys, seed):
    """``--seed`` takes the bound the parser puts on a file's seed; a seed
    outside it is a usage error, not a crash in key derivation."""
    with pytest.raises(SystemExit) as exit_:
        main(["run", GOLDEN, "--seed", seed])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mitto run")
    assert "--seed: must fit in 64 bits" in err


def test_run_directory_runs_every_scenario(capsys):
    assert main(["run", str(SCENARIO_DIR)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
    assert [line.split(":")[0] for line in lines[:-1]] == names
    assert all(line.endswith(", ok") for line in lines[:-1])
    assert lines[-1] == f"{len(names)}/{len(names)} scenarios passed"


def test_run_directory_exit_code_is_the_worst(tmp_path, capsys):
    (tmp_path / "a_golden.json").write_text(Path(GOLDEN).read_text())
    assert main(["run", str(tmp_path)]) == 0
    write_scenario(tmp_path, {"name": "x"}, name="b_broken.json")
    assert main(["run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "b_broken.json: parse error" in captured.err
    assert "1/2 scenarios passed" in captured.out
    assert main(["run", str(tmp_path), "--json-report", str(tmp_path / "r.json")]) == 2
    (tmp_path / "empty").mkdir()
    assert main(["run", str(tmp_path / "empty")]) == 2
    assert "no scenarios" in capsys.readouterr().err


def test_epoch_length_beyond_u32_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "long_epochs",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 99999999999}, {"label": "beta", "epoch_length": 2}],
        "steps": [],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert "at most 2^32-1" in capsys.readouterr().err


def test_vectors_emit_then_check(tmp_path, capsys):
    assert main(["vectors", str(tmp_path)]) == 0
    assert "emitted" in capsys.readouterr().out
    assert main(["vectors", str(tmp_path)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_vectors_mismatch_exit_one(tmp_path, capsys):
    assert main(["vectors", str(tmp_path)]) == 0
    capsys.readouterr()
    target = tmp_path / "vectors.json"
    data = json.loads(target.read_text())
    data["cases"][0]["expect"]["accepted"] = not data["cases"][0]["expect"]["accepted"]
    target.write_text(json.dumps(data))
    assert main(["vectors", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "mismatches" in captured.out
    assert data["cases"][0]["id"] in captured.err


def test_vectors_unreadable_file_exit_two(tmp_path, capsys):
    (tmp_path / "vectors.json").write_text("{not json")
    assert main(["vectors", str(tmp_path)]) == 2
    assert "cannot check" in capsys.readouterr().err


def test_vectors_file_not_utf8_exit_two(tmp_path, capsys):
    (tmp_path / "vectors.json").write_bytes(b'{"format": "\xff"}')
    assert main(["vectors", str(tmp_path)]) == 2
    assert "cannot check" in capsys.readouterr().err


@pytest.mark.parametrize("data,problem", [
    ([1], "top level must be an object, got list"),
    ({"format": 1, "cases": 5}, "'cases' must be a list of objects"),
    ({"format": 1, "cases": [{"id": "x"}, 1]}, "'cases' must be a list of objects"),
])
def test_vectors_malformed_file_exit_one(tmp_path, capsys, data, problem):
    (tmp_path / "vectors.json").write_text(json.dumps(data))
    assert main(["vectors", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert problem in captured.err and "vectors: 1 mismatches" in captured.out


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("issuance,message", [
    ({"data": 5}, "chains[0].issuances[0]: field 'data' must be str"),
    ({"colour": "red"}, "chains[0].issuances[0]: unknown field 'colour'"),
])
def test_bad_chain_issuance_exit_two(tmp_path, capsys, issuance, message):
    path = write_scenario(tmp_path, {
        "name": "issuance",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2,
                    "issuances": [dict({"name": "X", "fungible": True, "amount": 1, "owner": "a"}, **issuance)]}],
        "steps": [],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("chain,top,message", [
    ({"byzantine": "no"}, {}, "chains[0]: field 'byzantine' must be bool, got str"),
    ({"faulty_mode": None}, {}, "chains[0]: field 'faulty_mode' must be str, got NoneType"),
    ({}, {"expect_violations": "no"}, "field 'expect_violations' must be bool, got str"),
])
def test_untyped_scenario_boolean_exit_two(tmp_path, capsys, chain, top, message):
    path = write_scenario(tmp_path, {
        "name": "booleans",
        "seed": 2,
        "chains": [dict({"label": "alpha", "epoch_length": 2}, **chain)],
        "steps": [],
        **top,
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("entry,message", [
    ({"holdings": [{"name": "X"}]}, "steps[0].holdings[0]: give exactly one of 'amount' or 'token_id'"),
    ({"sent_records": [{"name": "X", "receiver": "zeta", "amount": 1}]},
     "steps[0].sent_records[0]: field 'receiver' references undeclared chain 'zeta'"),
])
def test_bad_assert_entry_exit_two(tmp_path, capsys, entry, message):
    path = write_scenario(tmp_path, {
        "name": "asserting",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2}],
        "steps": [dict({"op": "assert", "chain": "alpha"}, **entry)],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("quantity", [{}, {"amount": 2, "token_id": 0}], ids=["neither", "both"])
def test_notify_needs_exactly_one_quantity_exit_two(tmp_path, capsys, quantity):
    """A notify step with neither quantity, or with both, is a parse error."""
    path = write_scenario(tmp_path, {
        "name": "notifying",
        "seed": 2,
        "chains": [{"label": "alpha", "epoch_length": 2, "faulty_mode": "issuer_notification"},
                   {"label": "beta", "epoch_length": 2}, {"label": "gamma", "epoch_length": 2}],
        "steps": [{"op": "notify", "chain": "alpha", "from": "beta", "to": "gamma", "name": "GLD", **quantity}],
    })
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "steps[0]: give exactly one of 'amount' or 'token_id'" in err and "Traceback" not in err
