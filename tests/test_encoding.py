"""Canonical byte encoding: fixed-width integers, length prefixes, strict reads.

The primitives are read only inside a wire type's compiled decoder, so each
read is checked here through the ``decode`` of a type that holds it:
``Proof`` (u8, bytes), ``SentRecord`` (u32, str, the units union),
``WcertBundle`` (a digest list) and ``MerklePath`` (u32s first).
"""
import pytest
from hypothesis import given, settings, strategies as st

from mitto.encoding import (
    TAG_PROOF,
    TAG_SENT_RECORD,
    DecodeError,
    enc_bytes,
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
)
from mitto.hashing import MerklePath, build_merkle, hash_bytes, merkle_path
from mitto.messages import BlockHeader, Proof
from mitto.proofs import WcertBundle
from mitto.tokens import SentRecord


def test_fixed_width_big_endian():
    assert enc_u8(0) == b"\x00"
    assert enc_u8(255) == b"\xff"
    assert enc_u32(1) == b"\x00\x00\x00\x01"
    assert enc_u32(0xDEADBEEF) == b"\xde\xad\xbe\xef"
    assert enc_u64(1) == b"\x00\x00\x00\x00\x00\x00\x00\x01"
    assert enc_u64(2**64 - 1) == b"\xff" * 8


def test_out_of_range_integers_rejected():
    with pytest.raises(ValueError):
        enc_u8(256)
    with pytest.raises(ValueError):
        enc_u32(-1)
    with pytest.raises(ValueError):
        enc_u64(2**64)


def test_sibling_side_is_a_strict_byte():
    d0, d1, d2 = (hash_bytes(bytes([i])) for i in range(3))
    path = MerklePath(leaf_index=5, siblings=((d0, True), (d1, False), (d2, True)))
    data = enc_u32(5) + enc_u32(3) + d0 + b"\x01" + d1 + b"\x00" + d2 + b"\x01"
    assert path.encode() == data
    assert MerklePath.decode(data) == path
    for side_at in (4 + 4 + 32, 4 + 4 + 33 + 32, len(data) - 1):
        for side in (2, 0xFF):
            bad = data[:side_at] + bytes([side]) + data[side_at + 1 :]
            with pytest.raises(DecodeError, match=f"bad side byte {side}"):
                MerklePath.decode(bad)


def test_decoded_path_steps_are_exact_bytes_bool_pairs():
    tree = build_merkle([hash_bytes(bytes([i])) for i in range(5)])
    for index in range(5):
        decoded = MerklePath.decode(merkle_path(tree, index).encode())
        assert type(decoded.siblings) is tuple and decoded.siblings
        for step in decoded.siblings:
            assert type(step) is tuple and len(step) == 2
            assert type(step[0]) is bytes and len(step[0]) == 32 and type(step[1]) is bool


def test_sibling_list_is_read_in_one_bounded_take():
    # A count far past the data is refused before any pair is built.
    with pytest.raises(DecodeError, match="need 141733920735 bytes"):
        MerklePath.decode(enc_u32(0) + enc_u32(0xFFFF_FFFF))


def test_length_prefixed_bytes_and_str():
    assert enc_bytes(b"hi") == b"\x00\x00\x00\x02hi"
    assert enc_str("abc") == b"\x00\x00\x00\x03abc"
    assert enc_bytes(b"") == b"\x00\x00\x00\x00"


def test_digest_list_layout():
    d0, d1 = hash_bytes(b"0"), hash_bytes(b"1")
    bundle = WcertBundle(bt_list=(), proofdata=(d0, d1), signature=b"")
    assert bundle.encode() == enc_u32(0) + b"\x00\x00\x00\x02" + d0 + d1 + enc_u32(0)


def _proof(scheme: bytes, body: bytes) -> bytes:
    return bytes([TAG_PROOF]) + scheme + body


def _record(receiver: int, name: bytes) -> bytes:
    """A fungible SentRecord of 3 units, with ``name`` as its raw name bytes."""
    return bytes([TAG_SENT_RECORD]) + enc_u32(receiver) + enc_bytes(name) + b"\x01" + enc_u64(3)


def test_reader_roundtrip():
    d0 = hash_bytes(b"x")
    assert Proof.decode(_proof(enc_u8(7), enc_bytes(b"pay"))) == Proof(scheme_id=7, body=b"pay")
    assert SentRecord.decode(_record(9, b"nm")) == SentRecord(9, "nm", True, amount=3)
    assert WcertBundle.decode(enc_u32(0) + enc_u32(1) + d0 + enc_u32(0)) == WcertBundle((), (d0,), b"")


def test_reader_rejects_truncation():
    with pytest.raises(DecodeError, match="need 5 bytes at offset 6, have 2"):  # claims 5 bytes, has 2
        Proof.decode(_proof(enc_u8(7), b"\x00\x00\x00\x05ab"))


def test_reader_rejects_trailing_garbage():
    with pytest.raises(DecodeError, match="^1 trailing bytes$"):
        Proof.decode(_proof(enc_u8(1), enc_bytes(b"")) + b"\x00")


def test_reader_rejects_invalid_utf8():
    with pytest.raises(DecodeError, match="invalid utf-8"):
        SentRecord.decode(_record(9, b"\xff"))


def test_expect_tag():
    header = BlockHeader(height=1, parent_hash=hash_bytes(b"p"), stc_root=hash_bytes(b"s"))
    encoded = header.encode()
    assert BlockHeader.decode(encoded) == header
    with pytest.raises(DecodeError, match="expected tag 0x07, got 0x04"):
        BlockHeader.decode(b"\x04" + encoded[1:])


def test_reading_past_end_raises():
    with pytest.raises(DecodeError, match="need 8 bytes at offset 0, have 1"):
        MerklePath.decode(b"\x00")  # a u32 leaf index and a u32 count


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_roundtrip_property(n):
    assert int.from_bytes(enc_u64(n), "big") == n
    header = BlockHeader(height=n, parent_hash=hash_bytes(b"p"), stc_root=hash_bytes(b"s"))
    assert BlockHeader.decode(header.encode()).height == n


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=128))
def test_bytes_roundtrip_property(buf):
    assert Proof.decode(_proof(enc_u8(1), enc_bytes(buf))).body == buf


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=40))
def test_str_roundtrip_property(text):
    assert SentRecord.decode(_record(2, text.encode("utf-8"))).token_name == text
    assert _record(2, text.encode("utf-8"))[5:-9] == enc_str(text)


def test_encodings_are_prefix_free_by_length_prefix():
    # Two different payloads can never decode as each other: prefix carries length.
    a = enc_bytes(b"ab")
    b = enc_bytes(b"abc")
    assert not b.startswith(a) or a == b[: len(a)] and len(a) != len(b)
    assert Proof.decode(_proof(b"\x01", a)).body != Proof.decode(_proof(b"\x01", b)).body
    with pytest.raises(DecodeError):
        Proof.decode(_proof(b"\x01", b[:-1]))
