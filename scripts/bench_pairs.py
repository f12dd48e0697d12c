#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fuzz --seeds 9201-9210

Each seed in the inclusive range makes one pair: the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) runs once in each checkout, with
``--trace 0`` and the file's ``run_seconds``. The parent runs first in the
first pair, the change in the second, and so on. Runs are sequential.

Every run's metrics are printed as it ends. Then, for each end-to-end
metric, the table gives each side's median [q1, q3] over the pairs, the
change's median relative to the parent's, and the pairs the change won in
the direction ``BENCHMARK.json`` gives the metric (ties count for neither
side), followed by each side's failed operations against those attempted.

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
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

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
    print(f"{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} {'change':>8} {'wins':>6}")
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent_median = statistics.median(values["parent"])
        moved = statistics.median(values["change"]) / parent_median - 1 if parent_median else float("nan")
        print(f"{name:<14} {_spread(values['parent']):<30} {_spread(values['change']):<30} "
              f"{moved:>+8.2%} {wins:>3}/{pairs}")
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
