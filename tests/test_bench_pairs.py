"""The pair runner's no-regression verdict and gain rule, on synthetic run figures.

``scripts/bench_pairs.py`` is a script, not a package module, so it is
loaded from its file.
"""
import importlib.util
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
