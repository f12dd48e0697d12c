"""Source hygiene: no module imports a name it never uses, the package
loads every module a run executes and no other, every function the
benchmark traces exists, the README's layout lists every package module,
only the accountant drains a journal's key record, the runner names no
tamper, and no verifier check returns a bare False.

No linter ships with the project, so this walks the syntax tree of every
package and test module instead. A top-level import counts as used when
its bound name appears anywhere in the module as a name, or is listed in
``__all__``; ``from __future__`` imports are exempt.
"""
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mitto.scenario import TAMPERS

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


#: Modules ``import mitto`` leaves out: the command line and the input
#: generators no run executes.
OFF_RUN_PATH = ("cli", "fuzz", "vectors")


def _load_tracer():
    """perfbench's tracer, read from its file, unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _imported_siblings(path: Path) -> set[str]:
    """The ``mitto`` modules ``path`` imports anywhere, in a function too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mitto.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mitto"):
            module = node.module if node.level else node.module.partition(".")[2]
            names |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return names


def test_import_mitto_loads_the_run_path_only():
    """``import mitto`` loads every module but the CLI and the input
    generators, those include every module perfbench's tracer patches, and
    no module on that path imports one left out."""
    package = ROOT / "src" / "mitto"
    run_path = sorted(path.stem for path in package.glob("*.py") if path.stem not in ("__init__", *OFF_RUN_PATH))
    code = "import sys, mitto; print(sorted(n[6:] for n in sys.modules if n.startswith('mitto.')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(run_path)
    assert {module for module, _, _ in _load_tracer().TARGETS} <= set(run_path)
    reaching = {name: _imported_siblings(package / f"{name}.py") & set(OFF_RUN_PATH) for name in run_path}
    assert {name: found for name, found in reaching.items() if found} == {}


def test_every_traced_target_resolves():
    """Each (module, path) that perfbench's tracer wraps names a function or
    method of the loaded package, defined where the tracer looks for it: a
    method on its own class."""
    tracer = _load_tracer()
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


def _layout_modules(doc: str) -> list[str]:
    """The modules the layout block of ``doc`` names, in order."""
    block = (ROOT / doc).read_text().split("## Layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)


def test_readme_layout_names_every_module():
    """The README's layout block names each ``src/mitto`` module once and
    no module that does not exist."""
    assert sorted(_layout_modules("README.md")) == sorted(path.name for path in (ROOT / "src" / "mitto").glob("*.py"))


def test_paper_layout_names_every_module():
    assert sorted(_layout_modules("PAPER.md")) == sorted(_layout_modules("README.md"))


#: Calls that build a world by hand. Test worlds are scenarios run by
#: ``harness.World`` and ``Runner`` (``tests/worlds.py``); only the bare
#: settlement-chain unit tests build their own, and one schedule check that
#: needs a registration the World would already have sealed.
HAND_BUILDERS = ("Mainchain", "Sidechain.create", "ByzantineSidechain.create", "attach_token_ledger")


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def hand_built_worlds(source: str) -> list[str]:
    """``<owner>: <callee>`` for each hand-builder call, by the top-level
    function or class it sits in."""
    found = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = _dotted(call.func)
            if any(callee == name or callee.endswith("." + name) for name in HAND_BUILDERS):
                found.append(f"{getattr(node, 'name', '<module>')}: {callee}")
    return found


def test_builder_detector_sees_each_hand_builder():
    source = (
        "from mitto import mainchain as mm\n"
        "def build():\n"
        "    mc = mm.Mainchain()\n"
        "    sc = Sidechain.create(mc, 2, 'a')\n"
        "    ByzantineSidechain.create(mc, 2, 'b')\n"
        "    attach_token_ledger(sc, None)\n"
        "class TestWorld:\n"
        "    def test_scenario(self):\n"
        "        World(parse_scenario({})).mainchain.advance_block()\n"
    )
    assert hand_built_worlds(source) == [
        "build: mm.Mainchain",
        "build: Sidechain.create",
        "build: ByzantineSidechain.create",
        "build: attach_token_ledger",
    ]


def test_no_test_builds_a_world_by_hand():
    found = [
        f"{path.name} {call}"
        for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "test_mainchain.py"
        for call in hand_built_worlds(path.read_text())
    ]
    assert found == [
        "test_harness.py test_silent_cease_height_is_where_the_chain_ceases: Mainchain",
        "test_harness.py test_silent_cease_height_is_where_the_chain_ceases: Sidechain.create",
    ]


def calls_drain(source: str) -> bool:
    """Whether the source makes any ``<anything>.drain(...)`` call."""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "drain"
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_accountant_drains_a_journal():
    """A journal's key record has one reader: a drain hands the keys written
    since the last one to its caller, and no other reader would see them."""
    draining = [path.name for path in sorted((ROOT / "src" / "mitto").glob("*.py")) if calls_drain(path.read_text())]
    assert draining == ["accountant.py"]


def test_the_runner_names_no_tamper():
    """Each tamper is one entry of its op's table in ``scenario``: the runner
    looks a step's tamper up there, so a tamper's name in ``harness`` would be
    a second definition of it."""
    names = {name for values in TAMPERS.values() for name in values}
    tree = ast.parse((ROOT / "src" / "mitto" / "harness.py").read_text())
    found = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in names}
    assert sorted(found) == []


def bare_false_returns(source: str) -> list[int]:
    """The line of each ``return False`` in the source."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value is False
    ]


def test_no_verifier_check_returns_a_bare_false():
    """Each verifier in ``proofs`` is one sequence of named checks, which its
    ``explain_*`` reads; a ``return False`` would refuse a proof under no id."""
    assert bare_false_returns("def f(x):\n    if x:\n        return False\n    return x\n") == [3]
    assert bare_false_returns((ROOT / "src" / "mitto" / "proofs.py").read_text()) == []
