"""Tests of the benchmark's tracer, workloads and result line.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

They run each workload at a reduced size, so they take seconds, and they
are kept out of the simulator's own test suite (``tests/``).
"""
from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402

run.use_checkout_source()

import tracer  # noqa: E402
import workloads  # noqa: E402

SIZES = {"fuzz": 4, "scale_nft": 6, "ceased_recovery": 4}
SEED = 5
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())["predictions"]


def traced_round(workload: str) -> tuple[dict, run.RoundResult]:
    probe = tracer.Tracer()
    with probe:
        result = run.run_round(workload, SEED, 0, probe, size=SIZES[workload])
    return run.layer_figures(probe, result), result


@pytest.fixture(scope="module")
def traced():
    return {workload: traced_round(workload) for workload in run.WORKLOADS}


def test_every_wrapped_span_is_called_where_predicted(traced):
    predicted = {}
    for entry in PREDICTIONS:
        if "moves" in entry:
            span = entry["metric"].rsplit(".", 1)[0]
            predicted.setdefault(span, set()).update(entry["on"])
    spans = [name for name in tracer.SPAN_NAMES if name != tracer.STEP_SPAN]
    assert sorted(predicted) == sorted(spans)
    for span, on in predicted.items():
        for workload in on:
            figures, _ = traced[workload]
            assert figures[f"{span}.calls"] > 0, f"{span} never called on {workload}"


def test_exact_predictions_hold(traced):
    for entry in PREDICTIONS:
        if "equals" not in entry:
            continue
        for workload in entry["on"]:
            figures, _ = traced[workload]
            want = entry["equals"]
            want = figures[want] if isinstance(want, str) else want
            assert figures[entry["metric"]] == want, (entry["metric"], workload)


def test_rounds_are_correct(traced):
    for workload, (figures, result) in traced.items():
        assert result.failed == 0 and not result.problems, (workload, result.problems)
        assert result.attempted == result.steps > 0
        assert figures["harness.replay_probes"] > 0


def test_traced_round_reports_the_same_bytes_as_untraced(traced):
    for workload, (_, result) in traced.items():
        untraced = run.run_round(workload, SEED, 0, run.StepClock(), size=SIZES[workload])
        assert untraced.digest == result.digest, workload


def test_counts_repeat_exactly(traced):
    for workload, (figures, _) in traced.items():
        again, _ = traced_round(workload)
        counts = {k: v for k, v in figures.items() if run.unit_of(k) == "count"}
        assert counts == {k: again[k] for k in counts}, workload


def test_wrappers_reach_every_binding_and_are_removed():
    import mitto.keys
    import mitto.proofs
    import mitto.sidechain
    import mitto.tokens

    original = mitto.keys.verify_sig
    assert tracer.wrapped_bindings() == 0
    probe = tracer.Tracer()
    with probe:
        for module in (mitto.keys, mitto.proofs, mitto.sidechain, mitto.tokens):
            assert module.verify_sig is not original
            assert module.verify_sig.__wrapped__ is original
        assert tracer.wrapped_bindings() > len(tracer.TARGETS)
    assert tracer.wrapped_bindings() == 0
    assert mitto.sidechain.verify_sig is original


def test_spans_nest_and_self_time_adds_up(tmp_path):
    probe = tracer.Tracer()
    with probe:
        result = run.run_round("scale_nft", SEED, 0, probe, size=SIZES["scale_nft"])
    summary = probe.summary()
    step = summary[tracer.STEP_SPAN]
    assert step["calls"] == result.steps
    all_self = sum(f["ms"] for f in summary.values())
    roots = sum(
        (end - start) / 1e6
        for start, end, parent in zip(probe.starts, probe.ends, probe.parents)
        if parent < 0
    )
    assert all_self == pytest.approx(roots)
    path = tmp_path / "spans.tsv.gz"
    probe.write_spans(path)
    with gzip.open(path, "rt") as lines:
        assert sum(1 for _ in lines) == len(probe.name_ids) + 1


def test_speedometer_scales_each_segment_by_the_kernel_passes_around_it(monkeypatch):
    # Kernel passes at 2, 2 and 1 times the nominal time: the first segment
    # ran at half the reference speed, the second at two thirds of it.
    passes = iter([2.0, 2.0, 1.0])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda n=1: next(passes) * calibrate.NOMINAL_KERNEL_S)
    monkeypatch.setattr(calibrate, "SEGMENT_S", 1e9)
    speed = calibrate.Speedometer()
    clock = run.StepClock(speed)
    clock.begin(0)
    clock.end()
    first = speed.lap()
    clock.begin(1)
    clock.end()
    second = speed.lap()
    assert speed.factors == pytest.approx([0.5, 2 / 3])
    assert clock.segments == [0, 1]
    assert clock.latencies_ms() == pytest.approx(
        [clock.samples_ns[0] / 1e6 * 0.5, clock.samples_ns[1] / 1e6 * 2 / 3]
    )
    assert first + second == pytest.approx(speed.reference_s)
    assert speed.reference_s < speed.wall_s


def test_workloads_depend_only_on_seed_and_round():
    assert workloads.scale_nft(1, 0, 8) == workloads.scale_nft(1, 0, 8)
    assert workloads.scale_nft(1, 0, 8) != workloads.scale_nft(2, 0, 8)
    assert workloads.ceased_recovery(1, 2, 5) != workloads.ceased_recovery(1, 3, 5)
    assert workloads.fuzz_round(1, 1, 3) == workloads.fuzz_round(1, 1, 3)
    for obj in (workloads.scale_nft(1, 0, 8), workloads.ceased_recovery(1, 0, 5)):
        assert all("expect" in step for step in obj["steps"])


def test_result_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.per_layer_names()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_contract(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "3", "--seconds", "0.1", "--trace", trace],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
