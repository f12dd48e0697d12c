"""Canonical byte encoding primitives.

Deterministic and injective per type: fixed-width big-endian integers,
length-prefixed variable fields, one-byte tags for unions and optionals.
Every protocol type's encode() starts with its registered type tag so no
two types can collide on the same byte string.
"""

from __future__ import annotations

from .hashing import Digest, hash_bytes

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


def enc_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def enc_bytes(value: bytes) -> bytes:
    """Length-prefixed opaque bytes."""
    return enc_u32(len(value)) + value


def enc_str(value: str) -> bytes:
    return enc_bytes(value.encode("utf-8"))


def enc_digest(value: Digest) -> bytes:
    return bytes(Digest(value))


def enc_digest_list(values) -> bytes:
    values = list(values)
    return enc_u32(len(values)) + b"".join(enc_digest(d) for d in values)


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

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def boolean(self) -> bool:
        b = self.u8()
        if b not in (0, 1):
            raise DecodeError(f"bad bool byte {b}")
        return b == 1

    def raw_bytes(self) -> bytes:
        return self.take(self.u32())

    def string(self) -> str:
        try:
            return self.raw_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8") from exc

    def digest(self) -> Digest:
        return Digest(self.take(32))

    def digest_list(self) -> list[Digest]:
        return [self.digest() for _ in range(self.u32())]

    def expect_tag(self, tag: int) -> None:
        got = self.u8()
        if got != tag:
            raise DecodeError(f"expected tag 0x{tag:02x}, got 0x{got:02x}")

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


def canonical_digest(entity) -> Digest:
    return hash_bytes(entity.encode())
