"""Command-line front end.

``mitto run`` executes a scenario file, or every scenario in a directory,
and reports verdicts and invariant findings; ``mitto fuzz`` runs generated
adversarial traces; ``mitto validate`` checks a scenario file without
running it; and ``mitto vectors`` emits or re-checks the conformance
vector file in a directory.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage, parse or
scenario error (a step that cannot run as written still gets its report).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .encoding import U64_MAX
from .harness import HarnessError, Runner, dump_state, render_report
from .scenario import ParseError, load_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def u64(text: str) -> int:
    """A seed from the command line, under the bound the scenario parser
    puts on a file's ``seed``."""
    value = int(text)
    if not 0 <= value <= U64_MAX:
        raise argparse.ArgumentTypeError(f"must fit in 64 bits (0 to 2^64-1), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mitto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file, or every *.json scenario in a directory")
    run.add_argument("scenario", help="path to a scenario JSON file or a directory of them")
    run.add_argument("--seed", type=u64, default=None,
                     help="override the scenario's seed")
    run.add_argument("--dump", metavar="DIR", default=None,
                     help="write the final world state dump into DIR")
    run.add_argument("--json-report", metavar="PATH", default=None,
                     help="write the full JSON report to PATH instead of stdout (single file only)")

    fuzz = sub.add_parser("fuzz", help="run generated adversarial traces")
    fuzz.add_argument("--traces", type=int, default=1000, help="number of traces (default 1000)")
    fuzz.add_argument("--seed", type=u64, default=0, help="corpus seed (default 0)")

    val = sub.add_parser("validate", help="parse and check a scenario file without running it")
    val.add_argument("scenario", help="path to a scenario JSON file")

    vec = sub.add_parser("vectors", help="emit conformance vectors into DIR, or check them if present")
    vec.add_argument("directory", help="directory holding (or to receive) vectors.json")
    return parser


def _emit_report(report: dict, path: str | None) -> None:
    text = render_report(report)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        print(f"report written to {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    target = Path(args.scenario)
    if not target.is_dir():
        return _run_file(target, args, prefix="")
    if args.json_report is not None:
        print("--json-report needs a single scenario file, not a directory", file=sys.stderr)
        return EXIT_USAGE
    paths = sorted(target.glob("*.json"))
    if not paths:
        print(f"no scenarios in {target}", file=sys.stderr)
        return EXIT_USAGE
    codes = [_run_file(path, args, prefix=f"{path.name}: ") for path in paths]
    print(f"{codes.count(EXIT_OK)}/{len(paths)} scenarios passed")
    return max(codes)


def _run_file(path: Path, args: argparse.Namespace, prefix: str) -> int:
    """Run one scenario file. Only a single-file run (empty ``prefix``)
    emits the full report; a directory run prints its summary line."""
    try:
        scenario = load_scenario(path)
    except ParseError as err:
        print(f"{prefix}parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    dump_name = f"{scenario.name}.state.json"
    if args.dump is not None and (Path(dump_name).name != dump_name or "\0" in dump_name):
        print(f"{prefix}--dump: scenario name {scenario.name!r} is not a plain file name", file=sys.stderr)
        return EXIT_USAGE
    try:
        runner = Runner(scenario)
    except HarnessError as err:
        print(f"{prefix}scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    report = runner.run()
    try:
        if args.dump is not None:
            target = Path(args.dump) / dump_name
            target.parent.mkdir(parents=True, exist_ok=True)
            dump_state(runner.world, target)
        if not prefix:
            target = args.json_report or "<stdout>"
            _emit_report(report, args.json_report)
    except OSError as err:
        print(f"{prefix}cannot write {target}: {err}", file=sys.stderr)
        return EXIT_USAGE
    failure = report["failure"]
    if failure is not None and failure["invariant"] == "scenario":
        print(f"{prefix}scenario error: {failure['trace']}", file=sys.stderr)
        return EXIT_USAGE
    verdict = "ok" if report["ok"] else "FAILED"
    print(f"{scenario.name}: {len(report['steps'])} steps, "
          f"{len(report['violations'])} violations, {verdict}")
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.traces <= 0:
        print("--traces needs a positive trace count", file=sys.stderr)
        return EXIT_USAGE
    from .fuzz import run_fuzz

    result = run_fuzz(args.seed, args.traces)
    print(
        f"fuzz seed {args.seed}: {result['traces']} traces, {result['steps']} steps, "
        f"{len(result['violations'])} violations, "
        f"routing {result['routing']['rejected']}/{result['routing']['attempts']} rejected, "
        f"over-return {result['over_return']['rejected']}/{result['over_return']['attempts']} rejected"
    )
    for line in result["violations"][:20]:
        print(f"  {line}")
    return EXIT_OK if result["ok"] else EXIT_VIOLATION


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(f"ok: {scenario.name} ({len(scenario.chains)} chains, {len(scenario.steps)} steps)")
    return EXIT_OK


def _cmd_vectors(args: argparse.Namespace) -> int:
    from . import vectors

    directory = Path(args.directory)
    target = directory / vectors.FILE_NAME
    if not target.exists():
        try:
            path = vectors.emit_vectors(directory)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return EXIT_VIOLATION
        except OSError as err:
            print(f"cannot write {target}: {err}", file=sys.stderr)
            return EXIT_USAGE
        print(f"emitted {len(vectors.CASES)} vectors to {path}")
        return EXIT_OK
    try:
        problems = vectors.check_vectors(directory)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        print(f"cannot check {target}: {err}", file=sys.stderr)
        return EXIT_USAGE
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"vectors: {len(problems)} mismatches")
        return EXIT_VIOLATION
    print(f"vectors: all {len(vectors.CASES)} cases reproduced")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_vectors(args)


if __name__ == "__main__":
    sys.exit(main())
