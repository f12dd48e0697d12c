#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fuzz --seeds 9201-9210

Each seed in the inclusive range makes one pair: the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) runs once in each checkout, with
``--trace 0`` and the file's ``run_seconds``. The parent runs first in the
first pair, the change in the second, and so on. Runs are sequential.

Every run's metrics are printed as it ends. Then, for each end-to-end
metric, the table gives each side's median [q1, q3] over the pairs, the
change's median relative to the parent's, the pairs the change won in
the direction ``BENCHMARK.json`` gives the metric (ties count for neither
side), the metric's bound from that file, the no-regression verdict
(``regression_verdict``) and whether a gain on the metric may be claimed
(``gain_holds``), followed by each side's failed operations against those
attempted.

Both checkouts must hold the same ``BENCHMARK.json``. A checkout of the
parent commit can come from ``git worktree add`` or ``git archive``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1) if sep else range(0)
    except ValueError:
        seeds = range(0)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"want A-B with A < B, two seeds at least, got {text!r}")
    return seeds


def _run(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its final JSON line."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change beats the parent; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """Whether a gain on one metric may be claimed: the change wins at least
    nine pairs in ten, and its median beats the parent's by more than the
    parent's quartile spread, q3 - q1."""
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gained = sign * (statistics.median(change) - statistics.median(parent))
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gained > q3 - q1


def regression_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change regressed one metric beyond its relative ``bound``.

    "within bound" when every change run beats every parent run, or when
    the change's median is worse than the parent's by no more than
    ``bound``; "worse" when it is worse by more; "unresolved" when neither
    holds for lack of resolution: the parent's own quartile spread,
    relative to its median, is wider than ``bound``."""
    sign = 1 if better == "higher" else -1
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "within bound"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    median = statistics.median(parent)
    if not median or (q3 - q1) / abs(median) > bound:
        return "unresolved"
    worse_by = sign * (median - statistics.median(change)) / abs(median)
    return "worse" if worse_by > bound else "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seed_range, metavar="A-B",
                        help="inclusive seed range, one pair per seed")
    args = parser.parse_args(argv)

    benchmark = (args.change / "BENCHMARK.json").read_text()
    if (args.parent / "BENCHMARK.json").read_text() != benchmark:
        parser.error("the two checkouts hold different BENCHMARK.json files")
    spec = json.loads(benchmark)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"BENCHMARK.json declares no workload {args.workload!r}")
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = _run(checkout, spec["command"], args.workload, seed, spec["run_seconds"])
            runs[side].append(result)
            figures = "  ".join(f"{name} {result['metrics'][name]['value']:.4g}" for name in metrics)
            print(f"seed {seed} {side:<6}  {figures}  failed {result['failed']}/{result['attempted']}", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, {spec['run_seconds']} s runs")
    print(f"{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} {'change':>8} {'wins':>6}"
          f" {'bound':>6}  {'verdict':<12}  gain")
    for name, (better, bound) in metrics.items():
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        parent_median = statistics.median(parent)
        moved = statistics.median(change) / parent_median - 1 if parent_median else float("nan")
        print(f"{name:<14} {_spread(parent):<30} {_spread(change):<30} "
              f"{moved:>+8.2%} {wins(parent, change, better):>3}/{pairs} {bound:>6.0%}  "
              f"{regression_verdict(parent, change, better, bound):<12}  "
              f"{'holds' if gain_holds(parent, change, better) else 'no'}")
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
