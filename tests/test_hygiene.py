"""Source hygiene: no module imports a name it never uses, the package
loads every module, and every function the benchmark traces exists.

No linter ships with the project, so this walks the syntax tree of every
package and test module instead. A top-level import counts as used when
its bound name appears anywhere in the module as a name, or is listed in
``__all__``; ``from __future__`` imports are exempt.
"""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "mitto").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_exempt_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Any, Callable as Fn\n"
        "__all__ = ['Any']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: Fn"]


def test_import_mitto_loads_every_module_but_the_cli():
    """perfbench's tracer patches only the modules ``import mitto`` loaded."""
    expected = sorted(path.stem for path in (ROOT / "src" / "mitto").glob("*.py") if path.stem not in ("__init__", "cli"))
    code = "import sys, mitto; print(sorted(n[6:] for n in sys.modules if n.startswith('mitto.')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(expected)


def test_every_traced_target_resolves():
    """Each (module, path) that perfbench's tracer wraps names a function or
    method of the loaded package, defined where the tracer looks for it: a
    method on its own class. The tracer is read from its file, unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        *owners, attr = path.split(".")
        owner = importlib.import_module(f"mitto.{module_name}")
        for name in owners:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner) or not callable(getattr(owner, attr)):
            missing.append(f"mitto.{module_name}.{path}")
    assert len(tracer.TARGETS) > 0
    assert missing == []
