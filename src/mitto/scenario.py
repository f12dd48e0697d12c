"""Scenario files: schema, validation, loading.

A scenario is a JSON document declaring a chain roster and an ordered list
of steps. Validation is strict and front-loaded so that a running scenario
never trips over a missing field halfway through; every complaint names
the offending step and field.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .encoding import U32_MAX, U64_MAX  # epoch lengths are u32 on the wire, amounts and token ids u64
from .tokens import (
    VARIANT_ISSUER_NOTIFICATION,
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_STANDARD,
)


class ParseError(Exception):
    """Scenario file rejected; the message names the field at fault."""


FAULTY_MODES = (
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_ISSUER_NOTIFICATION,
)

STEP_OPS = (
    "issue",
    "send",
    "fabricate_send",
    "close_epoch",
    "advance_mainchain",
    "cease_by_silence",
    "redeem",
    "csw",
    "csw_redeem",
    "notify",
    "assert",
)

CSW_MODES = ("held", "foreign", "sent_record")

#: Most blocks one advance_mainchain step may seal: each block costs real
#: time (30 000 take about a second), and scenarios need only a few.
MAX_ADVANCE_BLOCKS = 100_000


@dataclass(frozen=True)
class ChainSpec:
    label: str
    epoch_length: int
    byzantine: bool = False
    faulty_mode: str | None = None
    issuances: tuple[dict, ...] = ()

    @property
    def variant(self) -> str:
        return self.faulty_mode or VARIANT_STANDARD


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    chains: tuple[ChainSpec, ...]
    steps: tuple[dict, ...]
    expect_violations: bool = False

    def chain(self, label: str) -> ChainSpec:
        for spec in self.chains:
            if spec.label == label:
                return spec
        raise KeyError(label)


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer, got a boolean")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _u64(obj: dict, key: str, where: str, low: int) -> int:
    value = _need(obj, key, int, where)
    if value > U64_MAX:
        raise ParseError(f"{where}: field {key!r} must be at most 2^64-1")
    if value < low:
        raise ParseError(f"{where}: field {key!r} must be {'positive' if low else 'nonnegative'}")
    return value


def _fields(obj, required: dict, optional: dict, where: str, suffix: str = "") -> None:
    """``obj`` is an object with no field outside ``required`` and
    ``optional``, and each field present has its declared type."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    unknown = set(obj) - required.keys() - optional.keys()
    if unknown:
        raise ParseError(f"{where}: unknown field {sorted(unknown)[0]!r}{suffix}")
    for key, kind in required.items():
        _need(obj, key, kind, where)
    for key, kind in optional.items():
        if key in obj:
            _need(obj, key, kind, where)


def _quantity(obj: dict, where: str) -> None:
    """Exactly one of a positive u64 ``amount`` or a u64 ``token_id``."""
    if ("amount" in obj) == ("token_id" in obj):
        raise ParseError(f"{where}: give exactly one of 'amount' or 'token_id'")
    if "amount" in obj:
        _u64(obj, "amount", where, 1)
    else:
        _u64(obj, "token_id", where, 0)


#: A token issuance's required and optional fields, as a chain's
#: ``issuances`` entry; an ``issue`` step adds the ``chain``.
_ISSUANCE_FIELDS = (
    {"name": str, "fungible": bool, "owner": str},
    {"amount": int, "token_id": int, "data": str},
)
#: Entries of an ``assert`` step's ``holdings`` and ``sent_records``.
_HOLDING_FIELDS = ({"name": str}, {"owner": str, "amount": int, "token_id": int})
_SENT_RECORD_FIELDS = ({"name": str, "receiver": str}, {"amount": int, "token_id": int})
#: A chain declaration's required and optional fields.
_CHAIN_FIELDS = (
    {"label": str, "epoch_length": int},
    {"byzantine": bool, "faulty_mode": str, "issuances": list},
)


def _issuance(obj: dict, where: str) -> dict:
    """An issuance whose fields ``_fields`` has checked, with its amount or
    token id bounded and the other one refused."""
    name, fungible = obj["name"], obj["fungible"]
    out = {"name": name, "fungible": fungible, "owner": obj["owner"], "data": obj.get("data", name)}
    if fungible:
        out["amount"] = _u64(obj, "amount", where, 1)
        if "token_id" in obj:
            raise ParseError(f"{where}: fungible issuance cannot carry 'token_id'")
    else:
        out["token_id"] = _u64(obj, "token_id", where, 0)
        if "amount" in obj:
            raise ParseError(f"{where}: non-fungible issuance cannot carry 'amount'")
    return out


def _chain_spec(obj: dict, index: int) -> ChainSpec:
    where = f"chains[{index}]"
    _fields(obj, *_CHAIN_FIELDS, where)
    epoch_length = obj["epoch_length"]
    if epoch_length < 2:
        raise ParseError(f"{where}: field 'epoch_length' must be at least 2")
    if epoch_length > U32_MAX:
        raise ParseError(f"{where}: field 'epoch_length' must be at most 2^32-1")
    faulty = obj.get("faulty_mode")
    if faulty is not None and faulty not in FAULTY_MODES:
        raise ParseError(
            f"{where}: unknown faulty_mode {faulty!r}, expected one of {', '.join(FAULTY_MODES)}"
        )
    issuances = []
    for i, entry in enumerate(obj.get("issuances", [])):
        _fields(entry, *_ISSUANCE_FIELDS, f"{where}.issuances[{i}]")
        issuances.append(_issuance(entry, f"{where}.issuances[{i}]"))
    return ChainSpec(
        label=obj["label"],
        epoch_length=epoch_length,
        byzantine=obj.get("byzantine", False),
        faulty_mode=faulty,
        issuances=tuple(issuances),
    )


#: Per op: the required fields with their types, then the optional ones
#: (``chains`` is "all" or a list, checked with its op). ``op`` and
#: ``expect`` are allowed on every step; any other field is refused.
_STEP_FIELDS = {
    "issue": ({"chain": str, **_ISSUANCE_FIELDS[0]}, _ISSUANCE_FIELDS[1]),
    "send": (
        {"from": str, "to": str, "name": str, "owner": str, "receiver": str},
        {"amount": int, "token_id": int, "id": str, "tamper": str},
    ),
    "fabricate_send": (
        {"from": str, "to": str, "name": str, "fungible": bool, "issuer": str, "owner": str, "receiver": str},
        {"amount": int, "token_id": int, "data": str, "id": str},
    ),
    "close_epoch": ({}, {"chains": object, "quality": int, "tamper": str}),
    "advance_mainchain": ({"blocks": int}, {}),
    "cease_by_silence": ({"chain": str}, {}),
    "redeem": ({"send": str}, {"tamper": str}),
    "csw": (
        {"id": str, "mode": str, "chain": str, "owner": str, "receiver": str},
        {
            "name": str,
            "amount": int,
            "token_id": int,
            "target": str,
            "holder": str,
            "return_send": str,
            "tamper": str,
        },
    ),
    "csw_redeem": ({"withdrawal": str}, {}),
    "notify": ({"chain": str, "from": str, "to": str, "name": str}, {"amount": int, "token_id": int}),
    "assert": ({"chain": str}, {"status": str, "holdings": list, "sent_records": list}),
}
_STEP_SCHEMAS = {
    op: (required, {"op": str, "expect": object, **optional}) for op, (required, optional) in _STEP_FIELDS.items()
}

#: Per op, the attacks a step may carry in its ``tamper`` field. Each value
#: makes the runner submit a deliberately broken transaction instead of the
#: honest one; the step must then be rejected.
TAMPERS = {
    "send": ("wrong_signer", "wrong_chain", "payload_mismatch", "unregistered_type", "malformed_payload"),
    "redeem": ("wrong_chain", "forged_receiver_auth", "wrong_block"),
    "close_epoch": ("wrong_epoch", "lower_quality", "altered_body"),
    "csw": ("forged_nullifier",),
}


def _validate_step(step: dict, index: int, labels: set[str], send_ids: set[str], csw_ids: set[str]):
    where = f"steps[{index}]"
    if not isinstance(step, dict):
        raise ParseError(f"{where}: must be an object")
    op = _need(step, "op", str, where)
    if op not in STEP_OPS:
        raise ParseError(f"{where}: unknown op {op!r}, expected one of {', '.join(STEP_OPS)}")
    _fields(step, *_STEP_SCHEMAS[op], where, f" for op {op!r}")
    if op != "issue":
        if "amount" in step:
            _u64(step, "amount", where, 1)
        if "token_id" in step:
            _u64(step, "token_id", where, 0)
    if "quality" in step:
        _u64(step, "quality", where, 0)
    for key in ("chain", "from", "to", "issuer", "holder", "target"):
        if key in step and step[key] not in labels:
            raise ParseError(f"{where}: field {key!r} references undeclared chain {step[key]!r}")
    if "tamper" in step and step["tamper"] not in TAMPERS[op]:
        raise ParseError(
            f"{where}: unknown tamper {step['tamper']!r} for op {op!r}, expected one of {', '.join(TAMPERS[op])}"
        )
    if op == "issue":
        _issuance(step, where)
    if op in ("send", "fabricate_send"):
        if step["from"] == step["to"] and op == "send" and not step.get("expect"):
            raise ParseError(f"{where}: self-send must declare its expected rejection")
        if "amount" in step and "token_id" in step:
            raise ParseError(f"{where}: give either 'amount' or 'token_id', not both")
        if "id" in step:
            if step["id"] in send_ids:
                raise ParseError(f"{where}: duplicate send id {step['id']!r}")
            send_ids.add(step["id"])
    if op == "notify":
        _quantity(step, where)
    if op == "fabricate_send" and step["fungible"] and "amount" not in step:
        raise ParseError(f"{where}: missing field 'amount'")
    if op == "fabricate_send" and not step["fungible"] and "token_id" not in step:
        raise ParseError(f"{where}: missing field 'token_id'")
    if op == "close_epoch":
        chains = step.get("chains", "all")
        if chains != "all":
            if not isinstance(chains, list) or not chains:
                raise ParseError(f"{where}: field 'chains' must be \"all\" or a non-empty list")
            for label in chains:
                if not isinstance(label, str) or label not in labels:
                    raise ParseError(f"{where}: field 'chains' references undeclared chain {label!r}")
    if op == "advance_mainchain" and step["blocks"] < 1:
        raise ParseError(f"{where}: field 'blocks' must be positive")
    if op == "advance_mainchain" and step["blocks"] > MAX_ADVANCE_BLOCKS:
        raise ParseError(f"{where}: field 'blocks' must be at most {MAX_ADVANCE_BLOCKS}")
    if op == "redeem" and step["send"] not in send_ids:
        raise ParseError(f"{where}: field 'send' references unknown send id {step['send']!r}")
    if op == "csw":
        if step["mode"] not in CSW_MODES:
            raise ParseError(f"{where}: unknown mode {step['mode']!r}, expected one of {', '.join(CSW_MODES)}")
        if step["id"] in csw_ids:
            raise ParseError(f"{where}: duplicate csw id {step['id']!r}")
        csw_ids.add(step["id"])
        if step["mode"] in ("held", "foreign") and "name" not in step:
            raise ParseError(f"{where}: missing field 'name'")
        if step["mode"] == "held" and "target" not in step:
            raise ParseError(f"{where}: missing field 'target'")
        if step["mode"] == "sent_record":
            for key in ("holder", "return_send", "target"):
                if key not in step:
                    raise ParseError(f"{where}: missing field {key!r}")
            if step["return_send"] not in send_ids:
                raise ParseError(
                    f"{where}: field 'return_send' references unknown send id {step['return_send']!r}"
                )
    if op == "assert":
        for i, entry in enumerate(step.get("holdings", [])):
            _fields(entry, *_HOLDING_FIELDS, f"{where}.holdings[{i}]")
            _quantity(entry, f"{where}.holdings[{i}]")
        for i, entry in enumerate(step.get("sent_records", [])):
            _fields(entry, *_SENT_RECORD_FIELDS, f"{where}.sent_records[{i}]")
            _quantity(entry, f"{where}.sent_records[{i}]")
            if entry["receiver"] not in labels:
                raise ParseError(
                    f"{where}.sent_records[{i}]: field 'receiver' references undeclared chain {entry['receiver']!r}"
                )
    if op == "csw_redeem" and step["withdrawal"] not in csw_ids:
        raise ParseError(f"{where}: field 'withdrawal' references unknown csw id {step['withdrawal']!r}")
    if "expect" in step:
        expect = step["expect"]
        if not isinstance(expect, dict) or not expect:
            raise ParseError(f"{where}: field 'expect' must be a non-empty object")
        for key in expect:
            if key not in ("accepted", "reason", "rule"):
                raise ParseError(f"{where}: unknown expect field {key!r}")


def parse_scenario(obj, source: str = "<memory>") -> Scenario:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top level must be an object")
    name = _need(obj, "name", str, source)
    seed = _need(obj, "seed", int, source)
    if not 0 <= seed < 2**64:
        raise ParseError(f"{source}: field 'seed' must fit in 64 bits")
    raw_chains = _need(obj, "chains", list, source)
    if not raw_chains:
        raise ParseError(f"{source}: field 'chains' must declare at least one chain")
    chains = tuple(_chain_spec(entry, i) for i, entry in enumerate(raw_chains))
    labels = [spec.label for spec in chains]
    if len(set(labels)) != len(labels):
        raise ParseError(f"{source}: duplicate chain labels in 'chains'")
    raw_steps = _need(obj, "steps", list, source)
    send_ids: set[str] = set()
    csw_ids: set[str] = set()
    for i, step in enumerate(raw_steps):
        _validate_step(step, i, set(labels), send_ids, csw_ids)
    unknown = set(obj) - {"name", "seed", "chains", "steps", "expect_violations"}
    if unknown:
        raise ParseError(f"{source}: unknown top-level field {sorted(unknown)[0]!r}")
    if "expect_violations" in obj:
        _need(obj, "expect_violations", bool, source)
    return Scenario(
        name=name,
        seed=seed,
        chains=chains,
        steps=tuple(raw_steps),
        expect_violations=obj.get("expect_violations", False),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from err
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}: {err.msg}") from err
    return parse_scenario(obj, source=str(path))
