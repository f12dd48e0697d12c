"""mitto benchmark: steps per second, step latency and per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
in reference seconds: wall time scaled by the host's speed at that moment,
as a fixed kernel measures it (see ``calibrate.py``).
``--trace 1`` runs round 0 of the workload alternately untraced and traced
(see ``tracer.py``) and reports the per-layer metrics, including the
tracing overhead. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a human-readable table and the round-0 ``report_sha256``.

Load comes from this one thread as a closed loop with one client: a step
starts only after the previous one returned. The simulator is built from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fuzz", "scale_nft", "ceased_recovery")
IMPORT_PROBES = 9
# Kernel passes timed right before and after each import probe; their median
# is the kernel's time.
PROBE_KERNEL_PASSES = 5

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_VIOLATION_STEP = re.compile(r"^step (\d+):")


class SourceMissing(Exception):
    """The checkout has no simulator source to benchmark."""


def use_checkout_source() -> None:
    """Import ``mitto`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mitto" / "__init__.py").is_file():
        raise SourceMissing(f"no simulator source at {SRC / 'mitto'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mitto

    if Path(mitto.__file__).resolve().parent != SRC / "mitto":
        raise SourceMissing(f"mitto was imported from {mitto.__file__}, not from {SRC}")


# -- one round ---------------------------------------------------------------------


class StepClock:
    """Step hooks for the untraced run: one latency sample per completed step.

    With a ``Speedometer``, a kernel pass may run between steps (never inside
    one), and ``latencies_ms`` gives each sample in reference milliseconds."""

    def __init__(self, speed: calibrate.Speedometer | None = None) -> None:
        self.speed = speed
        self.samples_ns: list[int] = []
        self.segments: list[int] = []
        self._start = 0

    def begin(self, index: int) -> None:
        if self.speed is not None:
            self.speed.mark()
        self._start = time.perf_counter_ns()

    def end(self) -> None:
        self.samples_ns.append(time.perf_counter_ns() - self._start)
        if self.speed is not None:
            self.segments.append(self.speed.segment)

    def abort(self) -> None:
        pass

    def latencies_ms(self) -> list[float]:
        factors = self.speed.factors
        return [ns / 1e6 * factors[seg] for ns, seg in zip(self.samples_ns, self.segments)]


def instrument(runner, hooks) -> None:
    """Time each step from the call of its handler to the end of the
    accountant sweep ``Runner.run`` makes after it. The wrappers live on this
    runner instance only; classes and modules are untouched."""
    from mitto.scenario import STEP_OPS

    for op in STEP_OPS:
        handler = getattr(runner, f"_op_{op}")

        def timed(index, step, _handler=handler):
            hooks.begin(index)
            try:
                return _handler(index, step)
            except BaseException:
                hooks.abort()
                raise

        setattr(runner, f"_op_{op}", timed)
    accountant = runner.world.accountant
    check = accountant.check

    def checked(snapshot):
        try:
            return check(snapshot)
        finally:
            hooks.end()

    accountant.check = checked


@dataclass
class RoundResult:
    setup_s: float = 0.0
    loop_s: float = 0.0
    setup_ref_s: float = 0.0
    loop_ref_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    entities: list[int] = field(default_factory=list)
    replay_probes: int = 0
    replay_rejected: int = 0
    problems: list[str] = field(default_factory=list)


def _state_books(report: dict) -> dict[str, list[dict]]:
    """Per chain label, the dumps of its message handlers at the end."""
    return {
        label: list(chain["state"]["handlers"].values())
        for label, chain in report["final"]["chains"].items()
    }


def _failed_steps(report: dict) -> set[int]:
    """Steps that drew a violation (accountant, atomicity, replay or a
    broken ``expect``) or failed an assert."""
    failed = set()
    for violation in report["violations"]:
        match = _VIOLATION_STEP.match(violation)
        failed.add(int(match.group(1)) if match else -1)
    if report["failure"] is not None:
        failed.add(report["failure"]["step"])
    return failed


def _end_state_problems(workload: str, report: dict, n: int) -> list[str]:
    books = _state_books(report)

    def count(label: str, key: str, name: str | None = None) -> int:
        return sum(
            1 for book in books[label] for e in book[key] if name is None or e["token_name"] == name
        )

    problems = []
    if workload == "scale_nft":
        want = {("beta", "s_tks", "ART"): n, ("alpha", "s_tks", None): 0, ("alpha", "s_sent", "ART"): n}
    else:
        want = {("beta", "s_tks", "ANFT"): n, ("beta", "s_tks", "BNFT"): n, ("beta", "s_sent", None): 0}
        status = report["final"]["chains"]["alpha"]["status"]
        if status != "ceased":
            problems.append(f"alpha ends {status!r}, expected 'ceased'")
    for (label, key, name), expected in want.items():
        found = count(label, key, name)
        if found != expected:
            problems.append(f"{label} ends with {found} {name or 'entries'} in {key}, expected {expected}")
    return problems


def _account(result: RoundResult, workload: str, report: dict, planned: int, probes: dict | None, n: int) -> None:
    done = len(report["steps"])
    result.steps += done
    result.attempted += done
    failed = _failed_steps(report)
    if probes is not None:
        routing = report["steps"][probes["routing"]]["outcome"]
        if routing["accepted"] or routing.get("rule") != "send-2":
            failed.add(probes["routing"])
        if report["steps"][probes["over_return"]]["outcome"]["accepted"]:
            failed.add(probes["over_return"])
    else:
        problems = _end_state_problems(workload, report, n)
        result.problems += [f"{report['scenario']}: {p}" for p in problems]
        if problems:
            failed.add(-1)
    if done != planned:
        result.problems.append(f"{report['scenario']}: ran {done} of {planned} steps")
    if (done != planned or not report["ok"]) and not failed:
        failed.add(-1)
    result.failed += len(failed)
    result.problems += [f"{report['scenario']}: {v}" for v in report["violations"]]
    for entry in report["steps"]:
        if "replay" in entry:
            result.replay_probes += 1
            result.replay_rejected += not entry["replay"]["accepted"]
    result.entities.append(
        sum(len(book["s_tks"]) + len(book["s_sent"]) for chain in _state_books(report).values() for book in chain)
    )


def run_round(
    workload: str, seed: int, round_index: int, hooks, size: int | None = None, speed: calibrate.Speedometer | None = None
) -> RoundResult:
    """Generate, parse and run one round, timing set-up and the step loop
    apart. For ``fuzz`` the loop includes building each trace's world.
    With ``speed`` (started just before the call), set-up and loop are also
    timed in reference seconds; the kernel passes are in neither."""
    import workloads
    from mitto.harness import Runner, render_report
    from mitto.scenario import parse_scenario

    result = RoundResult()
    digest = hashlib.sha256()
    start = time.perf_counter()
    if workload == "fuzz":
        traces = workloads.fuzz_round(seed, round_index, size or workloads.FUZZ_TRACES)
        jobs = [(parse_scenario(obj, source=obj["name"]), probes) for obj, probes in traces]
        prebuilt = None
        n = 0
    else:
        n = size or (workloads.SCALE_NFT_N if workload == "scale_nft" else workloads.CEASED_N)
        obj = getattr(workloads, workload)(seed, round_index, n)
        jobs = [(parse_scenario(obj, source=obj["name"]), None)]
        prebuilt = Runner(jobs[0][0])
    if speed is not None:
        result.setup_ref_s = speed.lap()
    loop_start = time.perf_counter()
    result.setup_s = loop_start - start
    for scenario, probes in jobs:
        runner = prebuilt
        try:
            if runner is None:
                runner = Runner(scenario)
            instrument(runner, hooks)
            report = runner.run()
        except Exception:
            # A raising step is a failed step; the other worlds still run.
            traceback.print_exc(file=sys.stderr)
            result.attempted += (len(runner.steps) if runner is not None else 0) + 1
            result.failed += 1
            result.problems.append(f"{scenario.name}: raised (traceback on stderr)")
            continue
        _account(result, workload, report, len(scenario.steps), probes, n)
        digest.update(render_report(report).encode())
    result.loop_s = time.perf_counter() - loop_start
    if speed is not None:
        result.loop_ref_s = speed.lap()
    result.digest = digest.hexdigest()
    return result


# -- end-to-end run -------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by the exclusive method of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def _mitto_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name == "mitto" or name.startswith("mitto.")}


def import_seconds() -> float:
    """Median time to import ``mitto`` afresh, in reference seconds.

    Each probe drops the ``mitto`` modules from ``sys.modules``, imports the
    package again and then puts the original modules back, so the rest of
    the run keeps using them. Its dependencies stay loaded, as in a process
    that imported them first. The probe runs in this process between kernel
    passes, as the steps do. An import in a fresh interpreter adds start-up
    and dependency loading that no change to ``mitto`` moves, and the
    kernel's speed does not track its time: ten-run medians of it moved by
    16% on unchanged code."""
    originals = _mitto_modules()
    samples = []
    try:
        for _ in range(IMPORT_PROBES):
            for name in _mitto_modules():
                del sys.modules[name]
            # Free the previous copy, so that peak memory holds one at most.
            gc.collect()
            before = calibrate.kernel_seconds(PROBE_KERNEL_PASSES)
            start = time.perf_counter()
            importlib.import_module("mitto")
            wall = time.perf_counter() - start
            after = calibrate.kernel_seconds(PROBE_KERNEL_PASSES)
            samples.append(wall * calibrate.NOMINAL_KERNEL_S / ((before + after) / 2))
    finally:
        for name in _mitto_modules():
            del sys.modules[name]
        sys.modules.update(originals)
        gc.collect()
    return statistics.median(samples)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Whole rounds, untraced, until ``seconds`` of set-up plus steps have passed.

    Every figure is in reference seconds and a median over rounds: the
    round's throughput, the round's p50 and p95 step latency, and its
    set-up time (plus the median import time)."""
    import tracer

    imported_s = import_seconds()
    rounds: list[RoundResult] = []
    latencies: list[list[float]] = []
    kernel_s: list[float] = []
    spent = 0.0
    while not rounds or spent < seconds:
        speed = calibrate.Speedometer()
        clock = StepClock(speed)
        result = run_round(workload, seed, len(rounds), clock, speed=speed)
        rounds.append(result)
        latencies.append(clock.latencies_ms())
        kernel_s += speed.kernel_s
        spent += speed.wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = sum(r.steps for r in rounds)
    round_setup_s = statistics.median(r.setup_ref_s for r in rounds)
    metrics = {
        "steps_per_s": statistics.median(r.steps / r.loop_ref_s for r in rounds),
        "step_ms_p50": statistics.median(statistics.median(ms) for ms in latencies),
        "step_ms_p95": statistics.median(_quantile(ms, 95) for ms in latencies),
        "setup_s": imported_s + round_setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    wall_rates = [r.steps / r.loop_s for r in rounds]
    info = {
        "rounds": len(rounds),
        "steps": steps,
        "latency samples (all rounds, fewest in one round)": f"{sum(map(len, latencies))}, {min(map(len, latencies))}",
        "step_ms_p99 (median round, diagnostic)": statistics.median(_quantile(ms, 99) for ms in latencies),
        "kernel ms (min, median, max)": ", ".join(
            f"{1000 * v:.3f}" for v in (min(kernel_s), statistics.median(kernel_s), max(kernel_s))
        ),
        "wall steps_per_s (min, median, max round)": ", ".join(
            f"{v:.1f}" for v in (min(wall_rates), statistics.median(wall_rates), max(wall_rates))
        ),
        "import_s (median of fresh imports)": imported_s,
        "round_setup_s (median)": round_setup_s,
        "failed_share": sum(r.failed for r in rounds) / max(1, sum(r.attempted for r in rounds)),
        "report_sha256 (round 0)": rounds[0].digest,
        "tracer bindings wrapped": tracer.wrapped_bindings(),
    }
    return metrics, _outcome(rounds, info)


def _outcome(rounds: list[RoundResult], info: dict) -> dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    return {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "info": info,
    }


# -- traced run -----------------------------------------------------------------------

def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Round 0, alternately untraced and traced, until ``seconds`` have passed.
    The spans of the last traced pass are written to ``perfbench/out/``.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over passes. An untraced warm-up pass goes
    first, so both sides of the overhead ratio see warm caches."""
    from tracer import Tracer

    reference = run_round(workload, seed, 0, StepClock())
    rounds = [reference]
    passes = []
    problems = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        untraced = run_round(workload, seed, 0, StepClock())
        probe = Tracer()
        with probe:
            traced = run_round(workload, seed, 0, probe)
        rounds += [untraced, traced]
        for result in (untraced, traced):
            if result.digest != reference.digest:
                problems.append(f"round 0 report_sha256 changed: {result.digest} != {reference.digest}")
        passes.append(
            (
                (traced.setup_s + traced.loop_s) / (untraced.setup_s + untraced.loop_s),
                layer_figures(probe, traced),
            )
        )
    counts = [{k: v for k, v in figures.items() if unit_of(k) == "count"} for _, figures in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes of the same round")
    metrics = {}
    for name in passes[0][1]:
        values = [figures[name] for _, figures in passes]
        metrics[name] = values[0] if name in counts[0] else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(ratio for ratio, _ in passes)
    spans_file = HERE / "out" / f"spans-{workload}-seed{seed}.tsv.gz"
    probe.write_spans(spans_file)
    info = {
        "traced passes": len(passes),
        "spans per pass": len(probe.name_ids),
        "report_sha256 (round 0)": reference.digest,
        "spans written to": str(spans_file),
    }
    outcome = _outcome(rounds, info)
    outcome["problems"] += problems
    outcome["correct"] = outcome["correct"] and not problems
    return metrics, outcome


def layer_figures(probe, traced: RoundResult) -> dict:
    """The per-layer metrics of one traced round, by metric name.
    ``tokens.entities`` is per world: a mean over the worlds of a fuzz round."""
    import tracer as layers

    summary = probe.summary()
    out = {}
    for name, figures in summary.items():
        if name == layers.STEP_SPAN:
            continue
        out[f"{name}.calls"] = figures["calls"]
        out[f"{name}.ms"] = figures["ms"]
        if name in layers.VERDICT_SPANS:
            out[f"{name}.rejected"] = figures["rejected"]
    canonical_calls = summary["encoding.canonical_digest"]["calls"]
    out["encoding.canonical_digest.distinct_ratio"] = probe.distinct_digests() / max(1, canonical_calls)
    out["hashing.build_merkle.leaves"] = probe.leaves
    out["tokens.entities"] = statistics.mean(traced.entities)
    out["harness.replay_probes"] = traced.replay_probes
    out["harness.replay_rejected"] = traced.replay_rejected
    out["harness.step.self_ms"] = summary["harness.step"]["ms"]
    return out


# -- output ---------------------------------------------------------------------------------


def environment() -> str:
    import cryptography

    return (
        f"Python {platform.python_version()}, cryptography {cryptography.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """The per-layer metrics of the JSON result line, in table order.

    The ``.ms`` of spans that only the ceased-sidechain flow reaches stay in
    the table but out of the result: on the other workloads they are exactly
    0 in every run, which reads as a time that was never measured."""
    import tracer

    names = []
    for span in tracer.SPAN_NAMES:
        if span == tracer.STEP_SPAN:
            continue
        names.append(f"{span}.calls")
        if span not in tracer.CSW_SPANS:
            names.append(f"{span}.ms")
        if span in tracer.VERDICT_SPANS:
            names.append(f"{span}.rejected")
    return names + [
        "hashing.build_merkle.leaves",
        "encoding.canonical_digest.distinct_ratio",
        "tokens.entities",
        "harness.replay_probes",
        "harness.replay_rejected",
        "harness.step.self_ms",
        "trace.overhead_ratio",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_checkout_source()
    except SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, outcome = per_layer(args.workload, args.seed, args.seconds)
        reported = per_layer_names()
    else:
        metrics, outcome = end_to_end(args.workload, args.seed, args.seconds)
        reported = list(END_TO_END_UNITS)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {environment()}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit_of(name)}")
    for name, value in outcome["info"].items():
        print(f"  {name:<52} {value}")
    for problem in outcome["problems"][:20]:
        print(f"  PROBLEM {problem}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in reported},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
