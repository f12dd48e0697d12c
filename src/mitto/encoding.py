"""Canonical byte encoding: primitives and the wire schema.

Deterministic and injective per type: fixed-width big-endian integers,
length-prefixed variable fields, one-byte tags for unions and optionals.
Every tagged type's encoding starts with its registered type tag so no
two types can collide on the same byte string.

Each wire type states its format once, as the field list it hands to
``wire``: (attribute, codec) pairs in wire order. ``wire`` compiles that
list, when the class is defined, into the type's ``encode()``, its
``read_at(data, offset) -> (value, end)`` and its strict top-level
``decode(data)``, and compiles the type's ``__init__`` from its dataclass
fields. A decoder reads each run of fixed-width fields with one
precompiled ``struct.Struct.unpack_from`` behind one bounds check, slices
each length-prefixed field after a bounds check, and calls the inner
type's ``read_at`` for a nested value; a short read is a ``DecodeError``
naming the bytes it needed. ``to_json`` is the one JSON rendering, for
reports. ``canonical_digest`` hashes each wire value once and keeps the
digest on it.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .hashing import Digest, MerklePath, hash_bytes

U8_MAX = 0xFF
U32_MAX = 0xFFFF_FFFF
U64_MAX = 0xFFFF_FFFF_FFFF_FFFF

# Type tags, one per protocol type that gets hashed or carried on the wire.
TAG_MESSAGE = 0x01
TAG_TOKEN_INSTANCE = 0x02
TAG_SENT_RECORD = 0x03
TAG_CERTIFICATE = 0x04
TAG_CSW = 0x05
TAG_REGISTRATION = 0x06
TAG_BLOCK_HEADER = 0x07
TAG_SEND_TX = 0x08
TAG_REDEEM_TX = 0x09
TAG_CSW_REDEEM_TX = 0x0A
TAG_REDEEM_PROOF = 0x0B
TAG_VERIFICATION_KEY = 0x0C
TAG_PROOF = 0x0D
TAG_WCERT_INPUT = 0x0E
TAG_CSW_INPUT = 0x0F


class DecodeError(Exception):
    """Byte string does not parse as the expected type."""


def enc_u8(value: int) -> bytes:
    if not 0 <= value <= U8_MAX:
        raise ValueError(f"u8 out of range: {value}")
    return value.to_bytes(1, "big")


def enc_u32(value: int) -> bytes:
    if not 0 <= value <= U32_MAX:
        raise ValueError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def enc_bytes(value: bytes) -> bytes:
    """Length-prefixed opaque bytes."""
    return enc_u32(len(value)) + value


def enc_str(value: str) -> bytes:
    return enc_bytes(value.encode("utf-8"))


def enc_digest(value: Digest, what: str = "digest") -> bytes:
    """A 32-byte field (a digest or a public key) as itself."""
    if len(value) != 32:
        raise ValueError(f"{what} must be 32 bytes, got {len(value)}")
    return value


def _short(need: int, at: int, have: int) -> DecodeError:
    """The refusal of a read of ``need`` bytes at offset ``at`` of data
    ``have`` bytes long."""
    return DecodeError(f"need {need} bytes at offset {at}, have {have - at}")


_U32 = struct.Struct(">I")


def _bytes_at(data: bytes, o: int) -> tuple[bytes, int]:
    """The u32-length-prefixed bytes at offset ``o``, and their end."""
    e = o + 4
    if e > len(data):
        raise _short(4, o, len(data))
    (size,) = _U32.unpack_from(data, o)
    o, e = e, e + size
    if e > len(data):
        raise _short(size, o, len(data))
    return data[o:e], e


def _str_at(data: bytes, o: int) -> tuple[str, int]:
    """The u32-length-prefixed UTF-8 string at offset ``o``, and its end."""
    raw, o = _bytes_at(data, o)
    try:
        return raw.decode("utf-8"), o
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid utf-8") from exc


def _sized(decode, data: bytes, o: int) -> tuple[object, int]:
    """The value ``decode`` makes of the u32-length-prefixed bytes at ``o``,
    which it must fill exactly, and their end."""
    raw, o = _bytes_at(data, o)
    return decode(raw), o


def _list_of(read_at, data: bytes, o: int, count: int) -> tuple[tuple, int]:
    """``count`` values, each read by ``read_at`` where the last ended."""
    items = []
    for _ in range(count):
        item, o = read_at(data, o)
        items.append(item)
    return tuple(items), o


#: Instance ``__dict__`` key of a wire value's digest. It is no identifier,
#: so it can never be a dataclass field: equality, hashing, ``repr``,
#: ``replace`` and ``to_json`` never see it.
_DIGEST_KEY = "@digest"


def canonical_digest(entity) -> Digest:
    """SHA-256 of ``entity.encode()``, computed once per object. ``wire``
    types are frozen dataclasses, so an object's bytes never change and its
    digest is kept on it."""
    memo = entity.__dict__
    digest = memo.get(_DIGEST_KEY)
    if digest is None:
        digest = memo[_DIGEST_KEY] = hash_bytes(entity.encode())
    return digest


def decode_hashed(cls, data: bytes, digest: Digest):
    """``cls.decode(data)``, for a caller that has checked that ``digest``
    is the SHA-256 of ``data``. Strict decoding makes the value's encoding
    ``data`` itself, so ``digest`` is kept as its ``canonical_digest``."""
    value = cls.decode(data)
    value.__dict__[_DIGEST_KEY] = digest
    return value


# ---------------------------------------------------------------------------
# Wire schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class Codec:
    """One field's wire form, as code the schema compiler splices into
    each type's encoder and decoder.

    ``put`` lists what the field writes, in order: (struct code, expression)
    for a fixed-width piece, ("", expression giving bytes) otherwise; ``{v}``
    is the field's value (``{v[i]}`` the i-th attribute of a multi-attribute
    field). ``get`` lists what it reads from ``data`` at offset ``o``:
    (struct code, "") for a fixed-width piece, ("*", size expression) for a
    slice of that many bytes, or ("", expression giving the piece and the
    offset after it); ``{0}``, ``{1}``, ... name the pieces read so far.
    ``check`` is a statement rejecting bad pieces, ``value`` builds the
    attribute (one expression per attribute of a multi-attribute field).
    ``kind`` and ``ref`` say what the codec is, for tests that walk the
    schema.
    """

    kind: str
    put: tuple[tuple[str, str], ...]
    get: tuple[tuple[str, str], ...]
    value: str | tuple[str, ...] = "{0}"
    check: str = ""
    ref: object = None


_BAD_BOOL = "if {0} > 1: raise DecodeError('bad bool byte %d' % {0})"

U8 = Codec("u8", put=(("B", "{v}"),), get=(("B", ""),))
U32 = Codec("u32", put=(("I", "{v}"),), get=(("I", ""),))
U64 = Codec("u64", put=(("Q", "{v}"),), get=(("Q", ""),))
BYTES = Codec("bytes", put=(("I", "len({v})"), ("", "{v}")), get=(("I", ""), ("*", "{0}")), value="{1}")
STR = Codec("str", put=(("", "enc_str({v})"),), get=(("", "_str_at(data, o)"),))
# A 32-byte field reads as the plain bytes the fixed-width struct unpacks
# and writes only after ``enc_digest`` has checked its length.
DIGEST = Codec("digest", put=(("", "enc_digest({v})"),), get=(("32s", ""),))
PUBKEY = Codec("pubkey", put=(("", "enc_digest({v}, 'public key')"),), get=(("32s", ""),))
DIGEST_LIST = Codec(
    "digest_list",
    put=(("I", "len({v})"), ("", "b''.join(map(enc_digest, {v}))")),
    get=(("I", ""), ("*", "32 * {0}")),
    value="tuple([{1}[i : i + 32] for i in range(0, len({1}), 32)])",
)
#: A Merkle path's ``(digest, on_left)`` pairs: a count, then per pair its
#: digest and a side byte (1: the sibling sits on the left), read as one slice.
SIBLING_LIST = Codec(
    "sibling_list",
    put=(("I", "len({v})"), ("", "b''.join([enc_digest(d) + (b'\\x01' if left else b'\\x00') for d, left in {v}])")),
    get=(("I", ""), ("*", "33 * {0}")),
    value="tuple([({1}[i : i + 32], {1}[i + 32] == 1) for i in range(0, len({1}), 33)])",
    check="if max({1}[32::33], default=0) > 1: raise DecodeError('bad side byte %d' % max({1}[32::33]))",
)
BYTES_LIST = Codec(
    "bytes_list",
    put=(("I", "len({v})"), ("", "b''.join(map(enc_bytes, {v}))")),
    get=(("I", ""), ("", "_list_of(_bytes_at, data, o, {0})")),
    value="{1}",
)
#: The amount-or-token-id union over (fungibility, amount, token_id): a
#: fungibility byte, then the amount of a fungible or the id of an NFT.
UNITS = Codec(
    "units",
    put=(("B", "1 if {v[0]} else 0"), ("Q", "{v[1]} if {v[0]} else {v[2]}")),
    get=(("B", ""), ("Q", "")),
    value=("{0} == 1", "{1} if {0} else None", "None if {0} else {1}"),
    check=_BAD_BOOL,
)


def nested(type_name: str) -> Codec:
    """A field holding one value of the named wire type (looked up when
    first decoded, so a type may name one declared in a later module)."""
    return Codec("nested", put=(("", "{v}.encode()"),), get=(("", f"_read_{type_name}(data, o)"),), ref=type_name)


def list_of(type_name: str) -> Codec:
    """A count-prefixed tuple of values of the named wire type."""
    return Codec(
        "list_of",
        put=(("I", "len({v})"), ("", "b''.join([x.encode() for x in {v}])")),
        get=(("I", ""), ("", f"_list_of(_read_{type_name}, data, o, {{0}})")),
        value="{1}",
        ref=type_name,
    )


def optional(type_name: str) -> Codec:
    """A flag byte, then one value of the named wire type when the flag is 1."""
    return Codec(
        "optional",
        put=(("B", "0 if {v} is None else 1"), ("", "b'' if {v} is None else {v}.encode()")),
        get=(("B", ""), ("", f"_read_{type_name}(data, o) if _flag({{0}}) else (None, o)")),
        value="{1}",
        ref=type_name,
    )


def sized(type_name: str) -> Codec:
    """One value of the named wire type inside a u32 length prefix, decoded
    strictly: the value must fill its length exactly."""
    return Codec(
        "sized",
        put=(("", "enc_bytes({v}.encode())"),),
        get=(("", f"_sized({type_name}.decode, data, o)"),),
        ref=type_name,
    )


def enum(enum_type) -> Codec:
    """A one-byte IntEnum; an unknown value raises ValueError."""
    _bind(enum_type.__name__, enum_type)
    return Codec("enum", put=(("B", "{v}"),), get=(("B", ""),), value=f"{enum_type.__name__}({{0}})", ref=enum_type)


def _flag(byte: int) -> bool:
    """An optional's presence flag; any byte but 0 or 1 is malformed."""
    if byte > 1:
        raise DecodeError(f"bad optional flag {byte}")
    return byte == 1


#: Every declared wire type, by class name.
WIRE_TYPES: dict[str, type] = {}

# Globals of the generated codecs: helpers, structs, every wire type and enum.
_NAMESPACE: dict = {
    "DecodeError": DecodeError,
    "StructError": struct.error,
    "_bytes_at": _bytes_at,
    "_flag": _flag,
    "_list_of": _list_of,
    "_short": _short,
    "_sized": _sized,
    "_str_at": _str_at,
    "enc_bytes": enc_bytes,
    "enc_digest": enc_digest,
    "enc_str": enc_str,
}


def _bind(name: str, obj) -> None:
    if _NAMESPACE.setdefault(name, obj) is not obj:
        raise ValueError(f"wire schema name {name!r} bound twice")


def _struct(fmt: str) -> str:
    name = f"_S_{fmt}"
    _NAMESPACE.setdefault(name, struct.Struct(">" + fmt))
    return name


def wire(tag: int | None, *field_list: tuple):
    """Class decorator: give a dataclass the constructor and codecs its
    field list implies.

    ``tag`` (None for untagged types) leads the encoding; each entry is
    (attribute, codec), or (tuple of attributes, codec) for a codec that
    spans several, and the entries name every field once. Adds
    ``__init__``, ``encode(self) -> bytes``, ``read_at(data, offset) ->
    (value, end)`` and ``decode(data)``, which also rejects trailing bytes.
    The class must be a frozen dataclass declared ``init=False``, with an
    instance ``__dict__``, where ``canonical_digest`` keeps its digest.
    """

    def declare(cls):
        name = cls.__name__
        params = getattr(cls, "__dataclass_params__", None)
        if params is None or not params.frozen or params.init or "__slots__" in cls.__dict__:
            raise TypeError(f"wire type {name} must be a frozen dataclass with init=False and without __slots__")
        names = [a for attrs, _ in field_list for a in ((attrs,) if isinstance(attrs, str) else attrs)]
        if sorted(names) != sorted(f.name for f in fields(cls)):
            raise TypeError(f"wire type {name}: the field list must name each field once")
        init, local = _init_source(cls)
        _bind(name, cls)
        entries = list(field_list)
        if tag is not None:
            tag_check = f"if {{0}} != {tag}: raise DecodeError('expected tag 0x{tag:02x}, got 0x%02x' % {{0}})"
            entries.insert(0, ((), Codec("tag", put=(("B", str(tag)),), get=(("B", ""),), value=(), check=tag_check)))
        source = init + _encoder_source(name, entries) + _decoder_source(cls, entries)
        exec(compile(source, f"<wire {name}>", "exec"), _NAMESPACE, local)
        _bind(f"_read_{name}", local["read_at"])
        for method in ("__init__", "encode"):
            local[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, local[method])
        cls.read_at = staticmethod(local["read_at"])
        cls.decode = staticmethod(_strict(local["read_at"]))
        cls.WIRE_FIELDS = field_list
        WIRE_TYPES[name] = cls
        return cls

    return declare


def _init_source(cls) -> tuple[str, dict]:
    """The constructor dataclass would write, with the same parameters, but
    writing the fields straight into the instance ``__dict__``, in field
    order, past the frozen ``__setattr__``; then ``__post_init__`` if
    defined. Also gives the default values, by the names the source uses."""
    params, lines, defaults = [], ["_d = self.__dict__"], {}
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"wire type {cls.__name__}: field {f.name} must be a plain init field")
        if f.default is MISSING:
            params.append(f.name)
        else:
            params.append(f"{f.name}=_default_{f.name}")
            defaults[f"_default_{f.name}"] = f.default
        lines.append(f"_d[{f.name!r}] = {f.name}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    return f"def __init__(self, {', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines), defaults


def _encoder_source(name: str, entries: list) -> str:
    pieces = []
    for attrs, codec in entries:
        v = f"self.{attrs}" if isinstance(attrs, str) else tuple(f"self.{a}" for a in attrs)
        pieces += [(fmt, expr.format(v=v)) for fmt, expr in codec.put]
    parts, run = [], []
    for fmt, expr in pieces + [("", "")]:  # the empty last piece flushes the last run
        if fmt:
            run.append((fmt, expr))
            continue
        if run:
            fmt = "".join(f for f, _ in run)
            if all(e.isdigit() for _, e in run):
                parts.append(repr(struct.pack(">" + fmt, *(int(e) for _, e in run))))
            else:
                parts.append(f"{_struct(fmt)}.pack({', '.join(e for _, e in run)})")
            run = []
        if expr:
            parts.append(expr)
    body = parts[0] if len(parts) == 1 else f"b''.join(({', '.join(parts)},))"
    return (
        "def encode(self):\n"
        f"    try:\n        return {body}\n"
        f"    except StructError as exc:\n        raise ValueError(f'{name}: {{exc}}') from None\n"
    )


def _decoder_source(cls, entries: list) -> str:
    name = cls.__name__
    lines, checks, run, values = ["n = len(data)"], [], [], {}
    counter = itertools.count()

    def bound(size: str) -> None:
        lines.append(f"e = o + {size}")
        lines.append("if e > n: raise _short(e - o, o, n)")

    def flush():
        if run:
            fmt = "".join(f for f, _ in run)
            targets = "".join(f"{t}, " for _, t in run)
            bound(str(struct.calcsize(">" + fmt)))
            lines.append(f"{targets}= {_struct(fmt)}.unpack_from(data, o)")
            lines.append("o = e")
            run.clear()
        lines.extend(checks)
        checks.clear()

    for attrs, codec in entries:
        temps = []
        for fmt, expr in codec.get:
            temp = f"t{next(counter)}"
            if fmt == "*":
                flush()
                bound(expr.format(*temps))
                lines += [f"{temp} = data[o:e]", "o = e"]
            elif fmt:
                run.append((fmt, temp))
            else:
                flush()
                lines.append(f"{temp}, o = {expr.format(*temps)}")
            temps.append(temp)
        if codec.check:
            checks.append(codec.check.format(*temps))
        if isinstance(attrs, str):
            values[attrs] = codec.value.format(*temps)
        else:
            values.update((a, value.format(*temps)) for a, value in zip(attrs, codec.value))
    flush()
    lines.append(f"return {name}({', '.join(values[f.name] for f in fields(cls))}), o")
    return "def read_at(data, o):\n" + "".join(f"    {line}\n" for line in lines)


def _strict(read_at):
    """``decode(data)``: the value ``read_at`` reads from offset 0, which
    must end exactly at the end of ``data``."""

    def decode(data: bytes):
        value, end = read_at(data, 0)
        if end != len(data):
            raise DecodeError(f"{len(data) - end} trailing bytes")
        return value

    return decode


def to_json(value):
    """JSON form of a wire value for reports: bytes as hex, dataclasses as
    objects in field order without their ``None`` fields."""
    if isinstance(value, bytes):
        return value.hex()
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is not None:
                out[f.name] = to_json(item)
        return out
    return value


# The Merkle path codec, shared by proof bundles and redeem evidence.
wire(None, ("leaf_index", U32), ("siblings", SIBLING_LIST))(MerklePath)
