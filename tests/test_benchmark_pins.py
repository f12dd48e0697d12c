"""The benchmark's byte-identity pins hold for this source tree.

``perfbench/baseline.json`` pins the SHA-256 of the reports of round 0 of
each workload. This runs round 0 of every workload at one pinned seed
through the benchmark's own ``run_round``, untraced, and compares. It
reads perfbench's files and changes none of them.
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))  # run.py imports calibrate and workloads from its own folder

import run as bench_run  # noqa: E402

SEED = 401
PINS = json.loads((PERFBENCH / "baseline.json").read_text())["report_sha256"]


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_round_zero_report_matches_the_benchmark_pin(workload):
    bench_run.use_checkout_source()
    result = bench_run.run_round(workload, SEED, 0, bench_run.StepClock())
    assert (result.failed, result.problems) == (0, [])
    assert result.digest == PINS[workload][str(SEED)]
