"""The pair runner's no-regression verdict, gain rule and JSON file, on synthetic run figures.

``scripts/bench_pairs.py`` is a script, not a package module, so it is
loaded from its file.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Ten runs around 100, quartile spread about 2% of the median.
STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
# Ten runs around 100, quartile spread about 45% of the median.
NOISY = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]


def _scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("parent,change,better,expected", [
    (STEADY, STEADY, "higher", "within bound"),
    (STEADY, _scaled(STEADY, 0.85), "higher", "within bound"),
    (STEADY, _scaled(STEADY, 0.75), "higher", "worse"),
    (STEADY, _scaled(STEADY, 1.25), "higher", "within bound"),
    (STEADY, _scaled(STEADY, 1.15), "lower", "within bound"),
    (STEADY, _scaled(STEADY, 1.25), "lower", "worse"),
    (STEADY, _scaled(STEADY, 0.75), "lower", "within bound"),
    (NOISY, NOISY, "higher", "unresolved"),
    (NOISY, _scaled(NOISY, 0.5), "higher", "unresolved"),
    (NOISY, [150] * 10, "higher", "within bound"),
    (NOISY, [50] * 10, "lower", "within bound"),
    (NOISY, [150] * 10, "lower", "unresolved"),
], ids=[
    "same", "15pct-fewer", "25pct-fewer", "25pct-more", "15pct-slower", "25pct-slower", "25pct-faster",
    "noisy-same", "noisy-halved", "noisy-every-run-better", "noisy-every-run-lower", "noisy-every-run-worse",
])
def test_regression_verdict(parent, change, better, expected):
    assert bench_pairs.regression_verdict(parent, change, better, 0.2) == expected


def test_a_zero_parent_median_is_unresolved():
    assert bench_pairs.regression_verdict([0, 0, 0, 0], [1, 0, 0, 0], "lower", 0.2) == "unresolved"


@pytest.mark.parametrize("parent,change,better,expected", [
    (STEADY, _scaled(STEADY, 1.05), "higher", True),
    (STEADY, _scaled(STEADY, 0.95), "lower", True),
    (STEADY, _scaled(STEADY, 0.95), "higher", False),
    (STEADY, STEADY, "higher", False),
    # Every pair won, but by less than the parent's quartile spread.
    (STEADY, [v + 0.5 for v in STEADY], "higher", False),
    # The median moves well past the spread, but only 8 of 10 pairs are won.
    (STEADY, _scaled(STEADY, 1.05)[:8] + [90, 90], "higher", False),
    # 9 of 10 pairs won, by more than the spread.
    (STEADY, _scaled(STEADY, 1.05)[:9] + [90], "higher", True),
    (NOISY, _scaled(NOISY, 1.1), "higher", False),
], ids=[
    "5pct-more", "5pct-faster", "5pct-fewer", "same", "within-spread", "8-of-10", "9-of-10", "noisy-10pct-more",
])
def test_gain_holds(parent, change, better, expected):
    assert bench_pairs.gain_holds(parent, change, better) is expected


def _checkouts(tmp_path):
    """Two checkouts holding the repository's BENCHMARK.json."""
    benchmark = (ROOT / "BENCHMARK.json").read_text()
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(benchmark)
    return [str(tmp_path / side) for side in bench_pairs.SIDES]


def _fake_run(factor):
    """A stand-in for one benchmark run: the parent's figures follow STEADY
    by seed, the change's are the parent's times ``factor``."""
    def run(checkout, command, workload, seed, seconds):
        value = STEADY[seed % len(STEADY)] * (factor if Path(checkout).name == "change" else 1)
        metrics = {m["name"]: {"value": value} for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        return {"metrics": metrics, "failed": 1 if Path(checkout).name == "change" else 0, "attempted": 10}
    return run


def test_out_writes_every_run_and_the_table_per_workload(tmp_path, monkeypatch, capsys):
    out, checkouts = tmp_path / "BENCH.json", _checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "_run", _fake_run(1.05))
    for workload, seeds in (("fuzz", "0-9"), ("scale_nft", "3-6")):
        assert bench_pairs.main([*checkouts, "--workload", workload, "--seeds", seeds, "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert sorted(written) == ["fuzz", "scale_nft"]
    fuzz = written["fuzz"]
    assert fuzz["seeds"] == [0, 9] and len(fuzz["runs"]) == 20
    assert [(row["seed"], row["side"]) for row in fuzz["runs"][:4]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
    ]
    assert fuzz["failed"] == {"parent": [0, 100], "change": [10, 100]}
    parent = [STEADY[seed] for seed in range(10)]
    change = [v * 1.05 for v in parent]
    for name, row in fuzz["metrics"].items():
        better = row["better"]
        assert row["parent"]["median"] == pytest.approx(100)
        assert row["wins"] == bench_pairs.wins(parent, change, better) and row["pairs"] == 10
        assert row["verdict"] == bench_pairs.regression_verdict(parent, change, better, row["bound"])
        assert row["gain_holds"] is bench_pairs.gain_holds(parent, change, better)
        assert row["gain_holds"] is (better == "higher")
    assert len(written["scale_nft"]["runs"]) == 8
    assert "steps_per_s" in capsys.readouterr().out
