"""Scenario files: schema, validation, loading.

A scenario is a JSON document declaring a chain roster and an ordered list
of steps. Each op, like a chain and a token issuance, is declared once as a
frozen dataclass whose fields are its JSON schema; one builder parses them
all into the typed values the runner executes. Validation is strict and
front-loaded, and every complaint names the offending step and field. An op
also declares its tampers, each the one definition of a broken transaction.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from itertools import accumulate
from pathlib import Path

from .encoding import U32_MAX, U64_MAX  # epoch lengths are u32 on the wire, amounts and token ids u64
from .hashing import hash_bytes
from .messages import SendTx, message_digest, redeem_auth_digest
from .tokens import (
    VARIANT_ISSUER_NOTIFICATION,
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_STANDARD,
    TokenInstance,
)


class ParseError(Exception):
    """Scenario file rejected; the message names the field at fault."""


class HarnessError(Exception):
    """A step could not be executed as written (not a protocol verdict).
    ``Runner.run`` ends the run there, with a ``scenario`` failure."""


FAULTY_MODES = (
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_ISSUER_NOTIFICATION,
)

#: Most blocks one advance_mainchain step may seal: each block costs real
#: time (100 000 take about 0.9 s), and scenarios need only a few.
MAX_ADVANCE_BLOCKS = 100_000

#: Most blocks one scenario's steps may seal, counting each cease_by_silence
#: at its cap: each sealed block stays alive at about 390 B, so this bounds a
#: run at about 200 MB of blocks and a few seconds of sealing.
MAX_SCENARIO_BLOCKS = 5 * MAX_ADVANCE_BLOCKS

# Field kinds: a field's annotation names one, and _KINDS says how it is
# checked. Each alias is the Python type of the kind's checked value.
Chain = SendId = CswId = SendRef = CswRef = str
Amount = U64 = Blocks = EpochLength = int
Chains, Expect, Issuances, Holdings, SentRecords = object, dict, tuple, tuple, tuple


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer, got a boolean")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{where}: field {key!r} must be encodable as UTF-8, got a lone surrogate") from None
    return value


#: How a bound reads in a complaint, where it is not the number itself.
_BOUND_TEXT = {0: "nonnegative", 1: "positive", U32_MAX: "2^32-1", U64_MAX: "2^64-1"}


def _bounded(value: int, key: str, where: str, low: int, high: int = U64_MAX) -> int:
    if value < low:
        raise ParseError(f"{where}: field {key!r} must be {_BOUND_TEXT.get(low, f'at least {low}')}")
    if value > high:
        raise ParseError(f"{where}: field {key!r} must be at most {_BOUND_TEXT.get(high, high)}")
    return value


def _named(value: str, key: str, where: str, known: set[str], what: str, new: bool = False) -> str:
    """A name in ``known``, or (``new``) one not yet in it, which it joins."""
    if new:
        if value in known:
            raise ParseError(f"{where}: duplicate {what} {value!r}")
        known.add(value)
    elif value not in known:
        raise ParseError(f"{where}: field {key!r} references {what} {value!r}")
    return value


def _chains(value, key: str, where: str, scope: dict):
    if value != "all" and (not isinstance(value, list) or not value):
        raise ParseError(f"{where}: field 'chains' must be \"all\" or a non-empty list")
    for label in () if value == "all" else value:
        if not isinstance(label, str) or label not in scope["chain"]:
            raise ParseError(f"{where}: field 'chains' references undeclared chain {label!r}")
    return value


#: The fields a step's ``expect`` may pin, with their types.
_EXPECT_FIELDS = {"accepted": bool, "reason": str, "rule": str}


def _expect(expect, key: str, where: str, scope: dict) -> dict:
    if not isinstance(expect, dict) or not expect:
        raise ParseError(f"{where}: field 'expect' must be a non-empty object")
    for name in expect:
        if name not in _EXPECT_FIELDS:
            raise ParseError(f"{where}: unknown expect field {name!r}")
        _need(expect, name, _EXPECT_FIELDS[name], f"{where}.expect")
    return expect


def _list_of(read):
    """A list read as a tuple of ``read(entry, where, scope)``, entry by entry."""
    return lambda value, key, where, scope: tuple(
        read(entry, f"{where}.{key}[{i}]", scope) for i, entry in enumerate(value)
    )


def _entry(schema: tuple[dict, tuple], entry, where: str, scope: dict) -> dict:
    """An ``assert`` entry's fields present, naming exactly one of ``amount`` or ``token_id``."""
    values = _read(schema, entry, where, scope)
    _one_quantity(values.get("amount"), values.get("token_id"), where)
    return values


def _one_quantity(amount: int | None, token_id: int | None, where: str) -> None:
    if (amount is None) == (token_id is None):
        raise ParseError(f"{where}: give exactly one of 'amount' or 'token_id'")


#: Per kind: its value's JSON type (any, for ``object``), and the check of the value given its key, where
#: it is and the scope (the declared chains, and the ids earlier steps declared), returning the field.
_KINDS = {
    "str": (str, None),
    "bool": (bool, None),
    "Amount": (int, lambda value, key, where, scope: _bounded(value, key, where, 1)),
    "U64": (int, lambda value, key, where, scope: _bounded(value, key, where, 0)),
    "Blocks": (int, lambda value, key, where, scope: _bounded(value, key, where, 1, MAX_ADVANCE_BLOCKS)),
    "EpochLength": (int, lambda value, key, where, scope: _bounded(value, key, where, 2, U32_MAX)),
    "Chain": (str, lambda value, key, where, scope: _named(value, key, where, scope["chain"], "undeclared chain")),
    "SendRef": (str, lambda value, key, where, scope: _named(value, key, where, scope["send"], "unknown send id")),
    "CswRef": (str, lambda value, key, where, scope: _named(value, key, where, scope["csw"], "unknown csw id")),
    "SendId": (str, lambda value, key, where, scope: _named(value, key, where, scope["send"], "send id", new=True)),
    "CswId": (str, lambda value, key, where, scope: _named(value, key, where, scope["csw"], "csw id", new=True)),
    "Chains": (object, _chains),
    "Expect": (object, _expect),
    "Issuances": (list, _list_of(lambda entry, where, scope: _build(Issuance, entry, where, scope))),
    "Holdings": (list, _list_of(lambda entry, where, scope: _entry(_HOLDING, entry, where, scope))),
    "SentRecords": (list, _list_of(lambda entry, where, scope: _entry(_SENT_RECORD, entry, where, scope))),
}


def _schema(declared) -> tuple[dict, tuple]:
    """``{JSON key: (attribute, JSON type, check)}`` and the required keys,
    from ``(attribute, kind, required)`` rows. A field's key is its attribute
    less a trailing ``_`` (``from_`` reads ``from``)."""
    rows = [(attr.rstrip("_"), attr, kind.removesuffix(" | None"), needed) for attr, kind, needed in declared]
    return {key: (attr, *_KINDS[kind]) for key, attr, kind, _ in rows}, tuple(key for key, *_, needed in rows if needed)


_QUANTITY = (("amount", "Amount", False), ("token_id", "U64", False))
_HOLDING = _schema([("name", "str", True), ("owner", "str", False), *_QUANTITY])
_SENT_RECORD = _schema([("name", "str", True), ("receiver", "Chain", True), *_QUANTITY])


def _read(schema: tuple[dict, tuple], obj, where: str, scope: dict | None, suffix: str = "") -> dict:
    """``obj``'s fields by attribute, each checked by its kind: ``obj`` is an
    object with every required field of ``schema`` and no other."""
    checks, required = schema
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    unknown = obj.keys() - checks.keys()
    if unknown:
        raise ParseError(f"{where}: unknown field {sorted(unknown)[0]!r}{suffix}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
    values = {}
    for key, value in obj.items():
        attr, kind, check = checks[key]
        if kind is not object and (type(value) is not kind or (kind is str and not value.isascii())):
            _need(obj, key, kind, where)  # the full check: names a wrong type, refuses text UTF-8 cannot hold
        values[attr] = value if check is None else check(value, key, where, scope)
    return values


def _build(cls, obj, where: str, scope: dict | None, suffix: str = ""):
    value = cls(**_read(cls.schema, obj, where, scope, suffix))
    value.check(where)
    return value


class _Declared:
    """A subclass is a frozen, keyword-only dataclass whose fields, less
    ``hidden``, are its JSON schema: a field's annotation names its kind in
    ``_KINDS``, and a field with no default is required. Its ``check(where)``
    refuses what no single field's kind sees: the rules between fields."""

    hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # No __eq__ or __repr__: nothing uses them, and each generated method costs import time.
        dataclass(frozen=True, kw_only=True, eq=False, repr=False)(cls)
        cls.schema = _schema((f.name, f.type, f.default is MISSING) for f in fields(cls) if f.name not in cls.hidden)


class Issuance(_Declared):
    """A token issued to ``owner``: ``amount`` units of a fungible name, or
    the non-fungible ``token_id``; its data hash is over ``data``, else the name."""

    name: str
    fungible: bool
    owner: str
    amount: Amount | None = None
    token_id: U64 | None = None
    data: str | None = None

    def check(self, where: str) -> None:
        given, refused = ("amount", "token_id") if self.fungible else ("token_id", "amount")
        if getattr(self, given) is None:
            raise ParseError(f"{where}: missing field {given!r}")
        if getattr(self, refused) is not None:
            raise ParseError(f"{where}: {'' if self.fungible else 'non-'}fungible issuance cannot carry {refused!r}")


class ChainSpec(_Declared):
    label: str
    epoch_length: EpochLength
    byzantine: bool = False
    faulty_mode: str | None = None
    issuances: Issuances = ()

    @property
    def variant(self) -> str:
        return self.faulty_mode or VARIANT_STANDARD

    def check(self, where: str) -> None:
        if not self.label:
            raise ParseError(f"{where}: field 'label' must not be empty")
        if self.faulty_mode is not None and self.faulty_mode not in FAULTY_MODES:
            raise ParseError(
                f"{where}: unknown faulty_mode {self.faulty_mode!r}, expected one of {', '.join(FAULTY_MODES)}"
            )


#: Each op's step type, in declaration order.
STEP_TYPES: dict[str, type[Step]] = {}


class Step(_Declared):
    """What every step may carry. An op is a subclass naming its ``op`` and its
    ``tampers``, the values its ``tamper`` field may take. Each maps to a
    function ``(world, label, tx) -> (label, tx)``: given the runner's
    ``harness.World``, the honest transaction and the label of the chain it
    goes to, it returns the broken transaction the runner submits in its place
    and the chain that gets it. An op with no tampers refuses a ``tamper``."""

    tampers = {}
    expect: Expect | None = None
    tamper: str | None = None

    def __init_subclass__(cls, op: str, **kwargs):
        cls.op, cls.hidden = op, () if cls.tampers else ("tamper",)
        super().__init_subclass__(**kwargs)
        STEP_TYPES[op] = cls

    def check(self, where: str) -> None:
        if self.tamper is not None and self.tamper not in self.tampers:
            raise ParseError(
                f"{where}: unknown tamper {self.tamper!r} for op {self.op!r}, "
                f"expected one of {', '.join(self.tampers)}"
            )


class Issue(Issuance, Step, op="issue"):
    chain: Chain


def _signed(label: str, signer, message, payload: bytes) -> tuple[str, SendTx]:
    return label, SendTx(message=message, payload=payload, signature=signer.sign(message_digest(message)))


def _owner_signed(world, label: str, message, payload: bytes) -> tuple[str, SendTx]:
    """The owner's send of ``payload`` under ``message``, which it commits to:
    a message wrong in itself, not in its signature."""
    message = replace(message, payload_hash=hash_bytes(payload))
    return _signed(label, world.actor_for_key(message.sender_id), message, payload)


def _unheld(world, label: str, tx: SendTx) -> tuple[str, SendTx]:
    """The owner's send of the held instance with its data hash changed."""
    instance = TokenInstance.decode(tx.payload)
    return _owner_signed(world, label, tx.message, replace(instance, data_hash=hash_bytes(instance.data_hash)).encode())


class Send(Step, op="send"):
    tampers = {
        "wrong_signer": lambda world, label, tx: _signed(label, world.forger(), tx.message, tx.payload),
        "wrong_chain": lambda world, label, tx: (world.label_by_sc_id(tx.message.receiving_sc_id), tx),
        "payload_mismatch": lambda world, label, tx: (label, replace(tx, payload=tx.payload + b"\x00")),
        "unregistered_type": lambda world, label, tx: _owner_signed(
            world, label, replace(tx.message, msg_type=max(world.chains[label].handlers) + 1), tx.payload
        ),
        "malformed_payload": lambda world, label, tx: _owner_signed(world, label, tx.message, b"not-a-token"),
        "sender_not_owner": lambda world, label, tx: _signed(
            label, world.forger(), replace(tx.message, sender_id=world.forger().public), tx.payload
        ),
        "unheld_instance": _unheld,
    }
    from_: Chain
    to: Chain
    name: str
    owner: str
    receiver: str
    amount: Amount | None = None
    token_id: U64 | None = None
    id: SendId | None = None

    def check(self, where: str) -> None:
        super().check(where)
        if self.from_ == self.to and self.expect is None:
            raise ParseError(f"{where}: self-send must declare its expected rejection")
        if self.amount is not None and self.token_id is not None:
            raise ParseError(f"{where}: give either 'amount' or 'token_id', not both")


class FabricateSend(Issuance, Step, op="fabricate_send"):
    """A byzantine chain sends a token it makes up, as if ``issuer`` issued it."""

    from_: Chain
    to: Chain
    issuer: Chain
    receiver: str
    id: SendId | None = None

    def check(self, where: str) -> None:
        if self.amount is not None and self.token_id is not None:
            raise ParseError(f"{where}: give either 'amount' or 'token_id', not both")
        super().check(where)


def _certified_again(world, label: str, cert) -> tuple:
    """The certificate, at ``cert``'s quality, of the epoch the chain closed last."""
    if cert.epoch_id == 0:
        raise HarnessError(f"chain {label} has closed no epoch to certify again")
    return label, world.chains[label].build_certificate(cert.quality, epoch_id=cert.epoch_id - 1)


class CloseEpoch(Step, op="close_epoch"):
    tampers = {
        "wrong_epoch": lambda world, label, cert: (
            label, world.chains[label].build_certificate(cert.quality, epoch_id=cert.epoch_id + 1)
        ),
        "lower_quality": _certified_again,
        "altered_body": lambda world, label, cert: (label, replace(cert, quality=cert.quality ^ 1)),
    }
    chains: Chains = "all"
    quality: U64 = 1


class AdvanceMainchain(Step, op="advance_mainchain"):
    blocks: Blocks


class CeaseBySilence(Step, op="cease_by_silence"):
    chain: Chain


class Redeem(Step, op="redeem"):
    tampers = {
        "wrong_chain": lambda world, label, tx: (world.label_by_sc_id(tx.message.sending_sc_id), tx),
        "forged_receiver_auth": lambda world, label, tx: (
            label, replace(tx, receiver_signature=world.forger().sign(redeem_auth_digest(tx.message, tx.payload)))
        ),
        "wrong_block": lambda world, label, tx: (
            label, replace(tx, proof=replace(tx.proof, block_hash=world.mainchain.get_block(0).hash))
        ),
        "forged_sender_sig": lambda world, label, tx: (
            label, replace(tx, sender_sig=world.forger().sign(message_digest(tx.message)))
        ),
    }
    send: SendRef


class Csw(Step, op="csw"):
    tampers = {
        "forged_nullifier": lambda world, label, package: (
            label, replace(package, csw=replace(package.csw, nullifier=hash_bytes(package.csw.nullifier)))
        ),
    }
    #: Per withdrawal mode, the optional fields it needs.
    modes = {"held": ("name", "target"), "foreign": ("name",), "sent_record": ("holder", "return_send", "target")}
    id: CswId
    mode: str
    chain: Chain
    owner: str
    receiver: str
    name: str | None = None
    amount: Amount | None = None
    token_id: U64 | None = None
    target: Chain | None = None
    holder: Chain | None = None
    return_send: SendRef | None = None

    def check(self, where: str) -> None:
        super().check(where)
        if self.mode not in self.modes:
            raise ParseError(f"{where}: unknown mode {self.mode!r}, expected one of {', '.join(self.modes)}")
        for key in self.modes[self.mode]:
            if getattr(self, key) is None:
                raise ParseError(f"{where}: missing field {key!r}")


class CswRedeem(Step, op="csw_redeem"):
    withdrawal: CswRef


class Notify(Step, op="notify"):
    chain: Chain
    from_: Chain
    to: Chain
    name: str
    amount: Amount | None = None
    token_id: U64 | None = None

    def check(self, where: str) -> None:
        _one_quantity(self.amount, self.token_id, where)


class Assert(Step, op="assert"):
    chain: Chain
    status: str | None = None
    holdings: Holdings | None = None
    sent_records: SentRecords | None = None


STEP_OPS = tuple(STEP_TYPES)
TAMPERS = {op: tuple(cls.tampers) for op, cls in STEP_TYPES.items() if cls.tampers}


@dataclass(frozen=True, eq=False, repr=False)
class Scenario:
    name: str
    seed: int
    chains: tuple[ChainSpec, ...]
    steps: tuple[Step, ...]
    expect_violations: bool = False


def _sealable(step: Step) -> int:
    """Most blocks ``step`` can seal."""
    if isinstance(step, AdvanceMainchain):
        return step.blocks
    return MAX_ADVANCE_BLOCKS if isinstance(step, CeaseBySilence) else 0


def _step(obj, index: int, scope: dict) -> Step:
    where = f"steps[{index}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    op = _need(obj, "op", str, where)
    cls = STEP_TYPES.get(op)
    if cls is None:
        raise ParseError(f"{where}: unknown op {op!r}, expected one of {', '.join(STEP_OPS)}")
    body = dict(obj)
    del body["op"]
    return _build(cls, body, where, scope, f" for op {op!r}")


def parse_scenario(obj, source: str = "<memory>") -> Scenario:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top level must be an object")
    name = _need(obj, "name", str, source)
    seed = _need(obj, "seed", int, source)
    if not 0 <= seed <= U64_MAX:
        raise ParseError(f"{source}: field 'seed' must fit in 64 bits")
    raw_chains = _need(obj, "chains", list, source)
    if not raw_chains:
        raise ParseError(f"{source}: field 'chains' must declare at least one chain")
    chains = tuple(_build(ChainSpec, entry, f"chains[{i}]", None) for i, entry in enumerate(raw_chains))
    labels = {spec.label for spec in chains}
    if len(labels) != len(chains):
        raise ParseError(f"{source}: duplicate chain labels in 'chains'")
    raw_steps = _need(obj, "steps", list, source)
    scope = {"chain": labels, "send": set(), "csw": set()}
    steps = tuple(_step(step, i, scope) for i, step in enumerate(raw_steps))
    for index, sealed in enumerate(accumulate(map(_sealable, steps))):
        if sealed > MAX_SCENARIO_BLOCKS:
            raise ParseError(f"steps[{index}]: the steps so far may seal {sealed} blocks, over {MAX_SCENARIO_BLOCKS}")
    unknown = set(obj) - {"name", "seed", "chains", "steps", "expect_violations"}
    if unknown:
        raise ParseError(f"{source}: unknown top-level field {sorted(unknown)[0]!r}")
    if "expect_violations" in obj:
        _need(obj, "expect_violations", bool, source)
    return Scenario(name, seed, chains, steps, obj.get("expect_violations", False))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text, byte {err.start} cannot be decoded") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}: {err.msg}") from err
    except RecursionError as err:
        raise ParseError(f"{path}: JSON nested too deeply to decode") from err
    return parse_scenario(obj, source=str(path))
