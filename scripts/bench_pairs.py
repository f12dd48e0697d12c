#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fuzz --seeds 9201-9210 [--out BENCH.json]

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

With ``--out FILE`` the same figures are also written to FILE as JSON,
under the workload's name: every run's row (seed, side, metrics, failed,
attempted) and, per metric, each side's median and quartiles, the wins,
the bound, the verdict and ``gain_holds``. Other workloads already in
FILE are kept, so one file can hold the pairs of every workload.

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


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


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


def summary(runs: dict[str, list[dict]], metrics: dict[str, tuple[str, float]]) -> dict:
    """Per end-to-end metric, both sides' spreads and the pair verdicts;
    ``runs`` maps each side to its runs' result lines, in pair order."""
    out = {}
    for name, (better, bound) in metrics.items():
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        parent_median = statistics.median(parent)
        out[name] = {
            "better": better,
            "parent": _spread(parent),
            "change": _spread(change),
            "moved": statistics.median(change) / parent_median - 1 if parent_median else None,
            "wins": wins(parent, change, better),
            "pairs": len(parent),
            "bound": bound,
            "verdict": regression_verdict(parent, change, better, bound),
            "gain_holds": gain_holds(parent, change, better),
        }
    return out


def _spread_text(spread: dict) -> str:
    return f"{spread['median']:.4g} [{spread['q1']:.4g}, {spread['q3']:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seed_range, metavar="A-B",
                        help="inclusive seed range, one pair per seed")
    parser.add_argument("--out", type=Path, metavar="FILE", help="also write the runs and the table to FILE as JSON")
    args = parser.parse_args(argv)

    benchmark = (args.change / "BENCHMARK.json").read_text()
    if (args.parent / "BENCHMARK.json").read_text() != benchmark:
        parser.error("the two checkouts hold different BENCHMARK.json files")
    spec = json.loads(benchmark)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"BENCHMARK.json declares no workload {args.workload!r}")
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    rows = []
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = _run(checkout, spec["command"], args.workload, seed, spec["run_seconds"])
            runs[side].append(result)
            figures = {name: result["metrics"][name]["value"] for name in metrics}
            rows.append({"seed": seed, "side": side, "metrics": figures,
                         "failed": result["failed"], "attempted": result["attempted"]})
            shown = "  ".join(f"{name} {value:.4g}" for name, value in figures.items())
            print(f"seed {seed} {side:<6}  {shown}  failed {result['failed']}/{result['attempted']}", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, {spec['run_seconds']} s runs")
    print(f"{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} {'change':>8} {'wins':>6}"
          f" {'bound':>6}  {'verdict':<12}  gain")
    table = summary(runs, metrics)
    for name, row in table.items():
        moved = float("nan") if row["moved"] is None else row["moved"]
        print(f"{name:<14} {_spread_text(row['parent']):<30} {_spread_text(row['change']):<30} "
              f"{moved:>+8.2%} {row['wins']:>3}/{pairs} {row['bound']:>6.0%}  "
              f"{row['verdict']:<12}  {'holds' if row['gain_holds'] else 'no'}")
    failed = {side: [sum(r[key] for r in runs[side]) for key in ("failed", "attempted")] for side in SIDES}
    for side, (count, attempted) in failed.items():
        print(f"{side} failed {count}/{attempted}")
    if args.out is not None:
        kept = json.loads(args.out.read_text()) if args.out.exists() else {}
        kept[args.workload] = {
            "seeds": [args.seeds[0], args.seeds[-1]],
            "run_seconds": spec["run_seconds"],
            "runs": rows,
            "metrics": table,
            "failed": failed,
        }
        args.out.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
