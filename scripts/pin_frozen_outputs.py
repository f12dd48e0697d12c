#!/usr/bin/env python3
"""Rewrite tests/golden/frozen_outputs.json from the current engine.

The file pins the SHA-256 of every output a change must leave byte-identical
unless it moves it on purpose: each bundled scenario's report (as
``mitto run --json-report`` writes it) and final-state dump (as ``mitto run
--dump`` writes it), the vector file ``mitto vectors`` emits, and what
``mitto fuzz --traces 200 --seed 7`` prints. The
acceptance tests compare the engine against these pins, so rerun this script
only when a change is meant to move one of those outputs, and say so.

Run from the repository root: ``PYTHONPATH=src python3 scripts/pin_frozen_outputs.py``.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from mitto import cli, vectors
from mitto.harness import Runner, render_json, render_report
from mitto.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
OUT = ROOT / "tests" / "golden" / "frozen_outputs.json"
FUZZ_ARGS = ["fuzz", "--traces", "200", "--seed", "7"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frozen_outputs() -> dict:
    """Per bundled scenario file, the digests of its report and dump, and
    the digests of the emitted vector file and of the fuzz run's output."""
    scenarios = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        runner = Runner(load_scenario(path))
        report = render_report(runner.run())
        scenarios[path.name] = {
            "report": _sha256(report),
            "dump": _sha256(render_json(runner.world.dump()) + "\n"),
        }
    with tempfile.TemporaryDirectory() as directory:
        emitted = vectors.emit_vectors(directory).read_text()
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        cli.main(FUZZ_ARGS)
    return {
        "scenarios": scenarios,
        vectors.FILE_NAME: _sha256(emitted),
        " ".join(["mitto", *FUZZ_ARGS]): _sha256(printed.getvalue()),
    }


def main() -> None:
    OUT.write_text(json.dumps(frozen_outputs(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
