"""Canonical byte encoding: primitives and the wire schema.

Deterministic and injective per type: fixed-width big-endian integers,
length-prefixed variable fields, one-byte tags for unions and optionals.
Every tagged type's encoding starts with its registered type tag so no
two types can collide on the same byte string.

Each wire type states its format once, as the field list it hands to
``wire``: (attribute, codec) pairs in wire order. ``wire`` compiles that
list when the class is defined into the type's ``encode()``, its
``read(reader)`` and its strict top-level ``decode(data)``; runs of
fixed-width fields pack and unpack through one precompiled
``struct.Struct``. ``to_json`` is the one JSON rendering, for reports.
``canonical_digest`` hashes each wire value once and keeps the digest on it.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, fields, is_dataclass

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


class ByteReader:
    """Strict cursor over an encoded byte string.

    Every read is bounds-checked and raises DecodeError on any shortfall;
    finish() rejects trailing bytes so encodings have no slack.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError(f"need {n} bytes at offset {self._pos}, have {len(self._data) - self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def raw_bytes(self) -> bytes:
        return self.take(self.u32())

    def string(self) -> str:
        try:
            return self.raw_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8") from exc

    def digests(self, count: int) -> tuple[Digest, ...]:
        data = self.take(32 * count)
        return tuple([data[i : i + 32] for i in range(0, len(data), 32)])

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


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
    field). ``get`` lists what it reads: (struct code, "") or ("", expression
    over the reader ``r``), where ``{0}``, ``{1}``, ... name the pieces read
    so far. ``check`` is a statement rejecting bad pieces, ``value`` builds
    the attribute (one expression per attribute of a multi-attribute field).
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
BYTES = Codec("bytes", put=(("I", "len({v})"), ("", "{v}")), get=(("I", ""), ("", "r.take({0})")), value="{1}")
STR = Codec("str", put=(("", "enc_str({v})"),), get=(("", "r.string()"),))
# A 32-byte field reads as the plain bytes the fixed-width struct unpacks
# and writes only after ``enc_digest`` has checked its length.
DIGEST = Codec("digest", put=(("", "enc_digest({v})"),), get=(("32s", ""),))
PUBKEY = Codec("pubkey", put=(("", "enc_digest({v}, 'public key')"),), get=(("32s", ""),))
DIGEST_LIST = Codec(
    "digest_list",
    put=(("I", "len({v})"), ("", "b''.join(map(enc_digest, {v}))")),
    get=(("I", ""), ("", "r.digests({0})")),
    value="{1}",
)
#: A Merkle path's ``(digest, on_left)`` pairs: a count, then per pair its
#: digest and a side byte (1: the sibling sits on the left), read in one take.
SIBLING_LIST = Codec(
    "sibling_list",
    put=(("I", "len({v})"), ("", "b''.join([enc_digest(d) + (b'\\x01' if left else b'\\x00') for d, left in {v}])")),
    get=(("I", ""), ("", "r.take(33 * {0})")),
    value="tuple([({1}[i : i + 32], {1}[i + 32] == 1) for i in range(0, len({1}), 33)])",
    check="if max({1}[32::33], default=0) > 1: raise DecodeError('bad side byte %d' % max({1}[32::33]))",
)
BYTES_LIST = Codec(
    "bytes_list",
    put=(("I", "len({v})"), ("", "b''.join(map(enc_bytes, {v}))")),
    get=(("I", ""), ("", "tuple([r.raw_bytes() for _ in range({0})])")),
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
    return Codec("nested", put=(("", "{v}.encode()"),), get=(("", f"{type_name}.read(r)"),), ref=type_name)


def list_of(type_name: str) -> Codec:
    """A count-prefixed tuple of values of the named wire type."""
    return Codec(
        "list_of",
        put=(("I", "len({v})"), ("", "b''.join([x.encode() for x in {v}])")),
        get=(("I", ""), ("", f"tuple([{type_name}.read(r) for _ in range({{0}})])")),
        value="{1}",
        ref=type_name,
    )


def optional(type_name: str) -> Codec:
    """A flag byte, then one value of the named wire type when the flag is 1."""
    return Codec(
        "optional",
        put=(("B", "0 if {v} is None else 1"), ("", "b'' if {v} is None else {v}.encode()")),
        get=(("B", ""), ("", f"{type_name}.read(r) if _flag({{0}}) else None")),
        value="{1}",
        ref=type_name,
    )


def sized(type_name: str) -> Codec:
    """One value of the named wire type inside a u32 length prefix, decoded
    strictly: the value must fill its length exactly."""
    return Codec(
        "sized",
        put=(("", "enc_bytes({v}.encode())"),),
        get=(("", f"{type_name}.decode(r.raw_bytes())"),),
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
    "_flag": _flag,
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
    """Class decorator: give a dataclass the codecs its field list implies.

    ``tag`` (None for untagged types) leads the encoding; each entry is
    (attribute, codec), or (tuple of attributes, codec) for a codec that
    spans several. Adds ``encode(self) -> bytes``, ``read(reader)`` and
    ``decode(data)``, which also rejects trailing bytes. The class must be a
    frozen dataclass with an instance ``__dict__``, where
    ``canonical_digest`` keeps its digest.
    """

    def declare(cls):
        name = cls.__name__
        params = getattr(cls, "__dataclass_params__", None)
        if params is None or not params.frozen or "__slots__" in cls.__dict__:
            raise TypeError(f"wire type {name} must be a frozen dataclass without __slots__")
        _bind(name, cls)
        entries = list(field_list)
        if tag is not None:
            tag_check = f"if {{0}} != {tag}: raise DecodeError('expected tag 0x{tag:02x}, got 0x%02x' % {{0}})"
            entries.insert(0, ((), Codec("tag", put=(("B", str(tag)),), get=(("B", ""),), value=(), check=tag_check)))
        source = _encoder_source(name, entries) + _reader_source(name, entries)
        local: dict = {}
        exec(compile(source, f"<wire {name}>", "exec"), _NAMESPACE, local)
        read = local["read"]

        def decode(data: bytes):
            reader = ByteReader(data)
            value = read(reader)
            reader.finish()
            return value

        cls.encode = local["encode"]
        cls.read = staticmethod(read)
        cls.decode = staticmethod(decode)
        cls.WIRE_FIELDS = field_list
        WIRE_TYPES[name] = cls
        return cls

    return declare


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


def _reader_source(name: str, entries: list) -> str:
    lines, checks, run, args = [], [], [], []
    counter = itertools.count()

    def flush():
        if run:
            fmt = "".join(f for f, _ in run)
            targets = "".join(f"{t}, " for _, t in run)
            lines.append(f"{targets}= {_struct(fmt)}.unpack(r.take({struct.calcsize('>' + fmt)}))")
            run.clear()
        lines.extend(checks)
        checks.clear()

    for attrs, codec in entries:
        temps = []
        for fmt, expr in codec.get:
            temp = f"t{next(counter)}"
            if fmt:
                run.append((fmt, temp))
            else:
                flush()
                lines.append(f"{temp} = {expr.format(*temps)}")
            temps.append(temp)
        if codec.check:
            checks.append(codec.check.format(*temps))
        if isinstance(attrs, str):
            args.append(f"{attrs}={codec.value.format(*temps)}")
        else:
            args += [f"{a}={value.format(*temps)}" for a, value in zip(attrs, codec.value)]
    flush()
    lines.append(f"return {name}({', '.join(args)})")
    return "def read(r):\n" + "".join(f"    {line}\n" for line in lines)


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
