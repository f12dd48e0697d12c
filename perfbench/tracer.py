"""Outside-in span tracer over the ``mitto`` layers.

The tracer wraps public functions of the ``mitto`` modules from the
benchmark's side; nothing under ``src/`` knows it exists. A module-level
function is replaced at *every* module binding that refers to it: a name
imported with ``from .keys import verify_sig`` is a separate binding in each
importing module, so patching only ``mitto.keys.verify_sig`` would record
nothing. Methods are replaced on their class, where every instance and
subclass finds them.

Each call becomes a span (name, start, end, parent span, step index) kept
in flat arrays in memory. ``summary()`` folds them into per-layer figures
and ``write_spans()`` writes them out once, when the run is over.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path, span name). Several targets may share one span
# name; their calls and times are added up under it.
TARGETS = (
    ("keys", "verify_sig", "keys.verify_sig"),
    ("keys", "KeyPair.sign", "keys.KeyPair.sign"),
    ("keys", "KeyPair.from_label", "keys.KeyPair.from_label"),
    ("hashing", "hash_bytes", "hashing.hash_bytes"),
    ("hashing", "build_merkle", "hashing.build_merkle"),
    ("hashing", "fold_path", "hashing.fold_path"),
    ("hashing", "build_stc", "hashing.build_stc"),
    ("encoding", "canonical_digest", "encoding.canonical_digest"),
    ("messages", "message_digest", "messages.message_digest"),
    ("proofs", "verify_wcert", "proofs.verify_wcert"),
    ("proofs", "prove_wcert", "proofs.prove_wcert"),
    ("proofs", "verify_redeem", "proofs.verify_redeem"),
    ("proofs", "build_redeem_proof", "proofs.build_redeem_proof"),
    ("proofs", "verify_csw", "proofs.verify_csw"),
    ("proofs", "prove_csw", "proofs.prove_csw"),
    ("proofs", "build_csw_redeem_proof", "proofs.build_csw_redeem_proof"),
    ("mainchain", "Mainchain.advance_block", "mainchain.Mainchain.advance_block"),
    ("mainchain", "Mainchain.submit_certificate", "mainchain.Mainchain.submit_certificate"),
    ("mainchain", "Mainchain.submit_csw", "mainchain.Mainchain.submit_csw"),
    ("sidechain", "Sidechain.accept_send", "sidechain.Sidechain.accept_send"),
    ("sidechain", "Sidechain.accept_redeem", "sidechain.Sidechain.accept_redeem"),
    ("sidechain", "Sidechain.accept_csw_redeem", "sidechain.Sidechain.accept_csw_redeem"),
    ("sidechain", "Sidechain.close_epoch", "sidechain.Sidechain.close_epoch"),
    ("sidechain", "Sidechain.build_message_withdrawal", "sidechain.Sidechain.build_message_withdrawal"),
    ("sidechain", "Sidechain.dump_state", "sidechain.Sidechain.dump_state"),
    ("tokens", "MittoState.validate_send", "tokens.MittoState.validate_send"),
    ("tokens", "MittoState.validate_redeem", "tokens.MittoState.validate_redeem"),
    ("tokens", "MittoState.dump", "tokens.MittoState.dump"),
    ("tokens", "withdraw_native_held", "tokens.withdraw"),
    ("tokens", "withdraw_native_sent", "tokens.withdraw"),
    ("tokens", "withdraw_foreign", "tokens.withdraw"),
    ("accountant", "Accountant.check", "accountant.Accountant.check"),
    ("accountant", "Accountant.note_issue", "accountant.Accountant.note"),
    ("accountant", "Accountant.note_send", "accountant.Accountant.note"),
    ("accountant", "Accountant.note_redeem", "accountant.Accountant.note"),
    ("accountant", "Accountant.note_csw_redeem", "accountant.Accountant.note"),
    ("harness", "World.__init__", "harness.World.build"),
    ("harness", "World.snapshot_for_accountant", "harness.World.snapshot_for_accountant"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
)

# Span names whose result is a verdict (or a bool for the verifiers); a
# rejecting Verdict or False counts as `rejected`.
VERDICT_SPANS = frozenset({
    "proofs.verify_wcert",
    "proofs.verify_redeem",
    "proofs.verify_csw",
    "mainchain.Mainchain.submit_certificate",
    "mainchain.Mainchain.submit_csw",
    "sidechain.Sidechain.accept_send",
    "sidechain.Sidechain.accept_redeem",
    "sidechain.Sidechain.accept_csw_redeem",
    "sidechain.Sidechain.close_epoch",
})

# Spans only the ceased-sidechain withdrawal flow reaches.
CSW_SPANS = frozenset({
    "proofs.verify_csw",
    "proofs.prove_csw",
    "proofs.build_csw_redeem_proof",
    "mainchain.Mainchain.submit_csw",
    "sidechain.Sidechain.accept_csw_redeem",
    "sidechain.Sidechain.build_message_withdrawal",
    "tokens.withdraw",
})

STEP_SPAN = "harness.step"
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + (STEP_SPAN,)


def _rejected(result) -> bool:
    if isinstance(result, tuple):
        result = result[-1]
    if result is False:
        return True
    return getattr(result, "accepted", True) is False


def _mitto_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "mitto" or name.startswith("mitto.")]


def wrapped_bindings() -> int:
    """How many ``mitto`` module or class attributes hold a tracer wrapper
    right now; 0 means nothing is traced."""
    found = 0
    for module in _mitto_modules():
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("mitto"):
                if module.__name__ == value.__module__:
                    found += sum(
                        hasattr(getattr(attr, "__func__", attr), "__perfbench_span__")
                        for attr in vars(value).values()
                    )
            elif hasattr(value, "__perfbench_span__"):
                found += 1
    return found


class Tracer:
    """Records spans while installed. Use as a context manager, or call
    ``install()`` and ``uninstall()``; uninstalling restores every binding."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.step_ids = array("i")
        self._stack: list[int] = []
        self.step = -1
        self.rejected = [0] * len(self.names)
        self.leaves = 0
        self._digests: set[bytes] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def open(self, name_id: int) -> int:
        sid = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.step_ids.append(self.step)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (innermost open span is {popped})")

    # Step hooks: a step span runs from the call of the step handler to the
    # end of the accountant sweep that follows it.

    def begin(self, index: int) -> None:
        self.step = index
        self._step_sid = self.open(self._name_id[STEP_SPAN])

    def end(self) -> None:
        self.close(self._step_sid)
        self.step = -1

    abort = end

    # -- installation -------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        name_id = self._name_id[name]
        open_, close = self.open, self.close
        if name in VERDICT_SPANS:
            rejected = self.rejected

            def wrapper(*args, **kwargs):
                sid = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(sid)
                if _rejected(result):
                    rejected[name_id] += 1
                return result
        elif name == "hashing.build_merkle":

            def wrapper(leaves, *args, **kwargs):
                sid = open_(name_id)
                try:
                    return fn(leaves, *args, **kwargs)
                finally:
                    close(sid)
                    self.leaves += len(leaves)
        elif name == "encoding.canonical_digest":
            digests = self._digests

            def wrapper(*args, **kwargs):
                sid = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(sid)
                digests.add(bytes(result))
                return result
        else:

            def wrapper(*args, **kwargs):
                sid = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_span__ = name
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("mitto")
        modules = _mitto_modules()
        for module_name, path, name in TARGETS:
            module = importlib.import_module(f"mitto.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrapper(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrapper(name, raw))
                continue
            original = getattr(module, path)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time in ms, and rejected.
        Self time is a span's duration minus the time its child spans cover."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        count = len(self.name_ids)
        child_ns = [0] * count
        parents = self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid, name_id in enumerate(self.name_ids):
            calls[name_id] += 1
            self_ns[name_id] += durations[sid] - child_ns[sid]
        return {
            name: {"calls": calls[i], "ms": self_ns[i] / 1e6, "rejected": self.rejected[i]}
            for i, name in enumerate(self.names)
        }

    def distinct_digests(self) -> int:
        return len(self._digests)

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line:
        id, name, start_ns, end_ns, parent id (-1 for none), step index (-1 outside steps)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\tstep\n")
            names = self.names
            for sid, (name_id, start, end, parent, step) in enumerate(
                zip(self.name_ids, self.starts, self.ends, self.parents, self.step_ids)
            ):
                out.write(f"{sid}\t{names[name_id]}\t{start}\t{end}\t{parent}\t{step}\n")
