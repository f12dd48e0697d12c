"""The wire schema: golden encodings, and properties of every declared type.

`golden/wire_vectors.json` was written from `wire_samples.py` by the
hand-written codecs and proof-bundle writers the schema replaced; it pins
every encoding byte for byte and must never be regenerated to make a codec
change pass.
"""
import gc
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wire_samples import ALICE, BOB, CSW_SIGNER, WCERT_SIGNER, bundle_witnesses, wire_samples

from mitto.encoding import (
    U8,
    U8_MAX,
    U32_MAX,
    U64_MAX,
    WIRE_TYPES,
    DecodeError,
    canonical_digest,
    enc_bytes,
    to_json,
    wire,
)
from mitto import hashing
from mitto.hashing import Digest, hash_bytes
from mitto.keys import PubKey
from mitto.proofs import (
    CswBundle,
    StateAnchor,
    make_wcert_input,
    prove_csw,
    prove_wcert,
    sim_merkle_vk,
    verify_csw,
    verify_wcert,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "wire_vectors.json").read_text())
SAMPLES = wire_samples()


def test_golden_pins_every_wire_type():
    assert sorted(GOLDEN) == sorted(SAMPLES)
    assert {name.split("/")[0] for name in GOLDEN} == set(WIRE_TYPES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_encoding(name):
    sample = SAMPLES[name]
    data = bytes.fromhex(GOLDEN[name])
    assert sample.encode() == data
    assert type(sample).decode(data) == sample


def _proved(name: str):
    """The bundle witness ``name`` proved by its prover: its verifier, its
    signer's public key, the public input and the proof."""
    witness = bundle_witnesses()[name]
    if name.startswith("WcertBundle/"):
        signer, prove, verify = WCERT_SIGNER, prove_wcert, verify_wcert
        public_input = make_wcert_input(*witness)
    else:
        signer, prove, verify = CSW_SIGNER, prove_csw, verify_csw
        public_input = witness[1]
    return verify, signer.public, public_input, prove(signer, *witness)


@pytest.mark.parametrize("name", sorted(bundle_witnesses()))
def test_provers_write_the_golden_bundles(name):
    """The golden bundle hex is the body the hand-written provers returned
    for these witnesses; the schema-built provers must return it too."""
    verify, public, public_input, proof = _proved(name)
    assert proof.body.hex() == GOLDEN[name]
    assert verify(sim_merkle_vk(public), public_input, proof)


@pytest.mark.parametrize("name", sorted(bundle_witnesses()))
@pytest.mark.parametrize("params_len", [0, 31, 33])
def test_a_key_that_is_not_32_bytes_never_verifies(name, params_len):
    verify, public, public_input, proof = _proved(name)
    assert verify(sim_merkle_vk((public + b"\x00")[:params_len]), public_input, proof) is False


#: The codecs of 32-byte fields: digests, public keys, and the lists and
#: pairs that hold digests.
_FIXED_WIDTH = ("digest", "pubkey", "digest_list", "sibling_list", "u32_digest")


def _fixed_width_values(value, where: str):
    """(kind, place, value) for every digest or key ``value`` holds, in
    nested wire values too."""
    for attrs, codec in type(value).WIRE_FIELDS:
        if not isinstance(attrs, str):
            continue
        item, place = getattr(value, attrs), f"{where}.{attrs}"
        if codec.kind in ("digest", "pubkey"):
            yield codec.kind, place, item
        elif codec.kind == "digest_list":
            yield from ((codec.kind, f"{place}[{i}]", x) for i, x in enumerate(item))
        elif codec.kind == "sibling_list":
            yield from ((codec.kind, f"{place}[{i}]", x) for i, (x, _) in enumerate(item))
        elif codec.kind == "u32_digest":
            yield codec.kind, place, item[1]
        elif codec.kind == "list_of":
            for i, x in enumerate(item):
                yield from _fixed_width_values(x, f"{place}[{i}]")
        elif codec.kind in ("nested", "sized", "optional") and item is not None:
            yield from _fixed_width_values(item, place)


def test_decoded_digests_and_keys_are_plain_bytes():
    found = [
        found
        for name, hexed in sorted(GOLDEN.items())
        for found in _fixed_width_values(type(SAMPLES[name]).decode(bytes.fromhex(hexed)), name)
    ]
    assert {kind for kind, _, _ in found} == set(_FIXED_WIDTH)
    for kind, place, value in found:
        assert type(value) is bytes and len(value) == 32 and not gc.is_tracked(value), place


_FIXED_WIDTH_FIELDS = sorted({
    (type(sample).__name__, attrs, codec.kind): sample
    for sample in SAMPLES.values()
    for attrs, codec in type(sample).WIRE_FIELDS
    if codec.kind in _FIXED_WIDTH
}.items())


@pytest.mark.parametrize("field,sample", _FIXED_WIDTH_FIELDS, ids=[f"{t}.{a}" for (t, a, _), _ in _FIXED_WIDTH_FIELDS])
@pytest.mark.parametrize("length", [31, 33])
def test_encode_rejects_a_digest_or_key_that_is_not_32_bytes(field, sample, length):
    _, attr, kind = field
    bad = bytes(length)
    value = {"digest_list": (bad,), "sibling_list": ((bad, False),), "u32_digest": (0, bad)}.get(kind, bad)
    with pytest.raises(ValueError, match=f"must be 32 bytes, got {length}"):
        replace(sample, **{attr: value}).encode()


def test_optional_flag_is_a_strict_byte():
    bundle = SAMPLES["CswBundle/payload"]
    assert bundle.message is None
    data = bytearray(bundle.encode())
    flag_at = 4 + 1 + 4 + len(bundle.entity_bytes)  # sc_id, kind, entity bytes
    assert data[flag_at] == 0
    data[flag_at] = 2
    with pytest.raises(DecodeError, match="bad optional flag 2"):
        CswBundle.decode(bytes(data))


def test_sized_value_must_fill_its_length():
    anchor = SAMPLES["StateAnchor"]
    rest = anchor.stc_path.encode() + anchor.header.encode()
    assert StateAnchor.decode(enc_bytes(anchor.cert.encode()) + rest) == anchor
    with pytest.raises(DecodeError, match="1 trailing bytes"):
        StateAnchor.decode(enc_bytes(anchor.cert.encode() + b"\x00") + rest)


# -- strategies derived from the field lists -------------------------------------

_digest = st.binary(min_size=32, max_size=32).map(Digest)
_SCALARS = {
    "u8": st.integers(0, U8_MAX),
    "u32": st.integers(0, U32_MAX),
    "u64": st.integers(0, U64_MAX),
    "bytes": st.binary(max_size=40),
    "str": st.text(max_size=12),
    "digest": _digest,
    "pubkey": st.binary(min_size=32, max_size=32).map(PubKey),
    "digest_list": st.lists(_digest, max_size=3).map(tuple),
    "sibling_list": st.lists(st.tuples(_digest, st.booleans()), max_size=3).map(tuple),
    "bytes_list": st.lists(st.binary(max_size=12), max_size=3).map(tuple),
    "units": st.one_of(
        st.tuples(st.just(True), st.integers(1, U64_MAX), st.none()),
        st.tuples(st.just(False), st.none(), st.integers(0, U64_MAX)),
    ),
    "u32_digest": st.tuples(st.integers(0, U32_MAX), _digest),
}


def _field_strategy(codec):
    if codec.kind in _SCALARS:
        return _SCALARS[codec.kind]
    if codec.kind == "enum":
        return st.sampled_from(list(codec.ref))
    inner = st.deferred(lambda: value_strategy(WIRE_TYPES[codec.ref]))
    if codec.kind in ("nested", "sized"):
        return inner
    if codec.kind == "optional":
        return st.none() | inner
    assert codec.kind == "list_of", codec.kind
    return st.lists(inner, max_size=3).map(tuple)


def _build(cls, values):
    kwargs = {}
    for (attrs, _), value in zip(cls.WIRE_FIELDS, values):
        kwargs.update(zip(attrs, value) if isinstance(attrs, tuple) else [(attrs, value)])
    return cls(**kwargs)


def value_strategy(cls):
    """Arbitrary values of a wire type, generated from its field list."""
    fields = st.tuples(*(_field_strategy(codec) for _, codec in cls.WIRE_FIELDS))
    return fields.map(lambda values: _build(cls, values))


@st.composite
def _mangled_encoding(draw, cls):
    data = bytearray(draw(value_strategy(cls)).encode())
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data) + 2))
    return bytes(data[:cut]) + draw(st.binary(max_size=2))


_PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(WIRE_TYPES))
def test_decode_inverts_encode(name):
    cls = WIRE_TYPES[name]

    @_PROPERTY
    @given(value_strategy(cls))
    def check(value):
        assert cls.decode(value.encode()) == value

    check()


@pytest.mark.parametrize("name", sorted(WIRE_TYPES))
def test_any_bytes_decode_canonically_or_raise_decode_errors(name):
    cls = WIRE_TYPES[name]

    @_PROPERTY
    @given(st.one_of(st.binary(max_size=200), _mangled_encoding(cls)))
    def check(data):
        try:
            value = cls.decode(data)
        except (DecodeError, ValueError):
            return
        assert value.encode() == data

    check()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_single_byte_mutations_decode_canonically_or_raise(name):
    """Every one-byte change to a golden encoding, to each boundary value a
    tag, flag or length byte can take: a decode error, or a value that
    encodes back to exactly the mutated bytes."""
    cls, golden = type(SAMPLES[name]), bytes.fromhex(GOLDEN[name])
    for index in range(len(golden)):
        for byte in {0, 1, 2, 0x7F, 0xFF, golden[index] ^ 1}:
            data = golden[:index] + bytes([byte]) + golden[index + 1 :]
            try:
                value = cls.decode(data)
            except (DecodeError, ValueError):
                continue
            assert value.encode() == data, (index, byte)


def test_encode_rejects_out_of_range_integers():
    message = SAMPLES["CscpMessage"]
    values = {f.name: getattr(message, f.name) for f in fields(message)}
    for bad in (-1, U32_MAX + 1):
        with pytest.raises(ValueError, match="CscpMessage"):
            type(message)(**{**values, "msg_type": bad}).encode()


def test_to_json_renders_report_types():
    instance, record, message = SAMPLES["TokenInstance/nft"], SAMPLES["SentRecord/fungible"], SAMPLES["CscpMessage"]
    assert to_json(instance) == {
        "token_name": "ART-é",
        "fungibility": False,
        "issuer_sc_id": 2,
        "owner": BOB.hex(),
        "data_hash": hash_bytes(b"art").hex(),
        "token_id": 0,
    }
    assert to_json(record) == {"receiver_sc_id": 2, "token_name": "GOLD", "fungibility": True, "amount": 40}
    assert to_json(message) == {
        "sending_sc_id": 1,
        "receiving_sc_id": 0x01020304,
        "msg_type": 1,
        "sender_id": ALICE.hex(),
        "receiver_id": BOB.hex(),
        "payload_hash": hash_bytes(b"payload").hex(),
    }


# -- the per-object digest memo -------------------------------------------------------


class _Plain:
    x: int


@dataclass
class _Mutable:
    x: int


@dataclass(frozen=True, slots=True)
class _Slotted:
    x: int


@pytest.mark.parametrize("cls", [_Plain, _Mutable, _Slotted])
def test_wire_rejects_all_but_frozen_dataclasses(cls):
    """A digest kept on a mutable object could go stale; a slotted one has
    no ``__dict__`` to keep it in."""
    with pytest.raises(TypeError, match="must be a frozen dataclass"):
        wire(None, ("x", U8))(cls)
    assert cls.__name__ not in WIRE_TYPES


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_digest_is_the_hash_of_the_encoding(name):
    sample = wire_samples()[name]
    assert set(vars(sample)) == {f.name for f in fields(sample)}  # no digest yet
    for _ in range(2):  # computing it, then reading it back
        assert canonical_digest(sample) == hash_bytes(sample.encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_memo_is_invisible(name):
    digested = SAMPLES[name]
    canonical_digest(digested)
    fresh = type(digested).decode(digested.encode())
    assert [f.name for f in fields(digested)] == list(vars(fresh))
    assert to_json(digested) == to_json(fresh)
    assert digested == fresh and hash(digested) == hash(fresh)
    assert repr(digested) == repr(fresh)


def test_copies_compute_their_own_digest(monkeypatch):
    sha256_inputs = []
    sha256 = hashing._sha256
    monkeypatch.setattr(hashing, "_sha256", lambda data: sha256_inputs.append(data) or sha256(data))
    message = SAMPLES["CscpMessage"]
    digest = canonical_digest(message)
    changed = replace(message, msg_type=message.msg_type + 1)
    decoded = type(message).decode(message.encode())
    sha256_inputs.clear()
    assert canonical_digest(changed) != digest
    assert canonical_digest(decoded) == digest
    assert canonical_digest(message) == digest
    assert sha256_inputs == [changed.encode(), message.encode()]
