"""The wire schema: golden encodings, and properties of every declared type.

`golden/wire_vectors.json` was written from `wire_samples.py` by the
hand-written codecs and proof-bundle writers the schema replaced; it pins
every encoding byte for byte and must never be regenerated to make a codec
change pass.
"""
import gc
import hashlib
import inspect
import json
import struct
from dataclasses import FrozenInstanceError, MISSING, dataclass, field, fields, make_dataclass, replace
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


def _sha(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


def _path_bytes(leaf_index: int, siblings: list[tuple[str, bool]]) -> bytes:
    """A Merkle path as laid out on the wire: u32 leaf index, u32 count,
    then each sibling's digest and its on-left byte."""
    out = struct.pack(">II", leaf_index, len(siblings))
    return out + b"".join(_sha(label) + bytes([on_left]) for label, on_left in siblings)


def _hand_assembled_redeem_vectors() -> dict:
    """The golden redeem encodings, written out byte by byte from the
    layout of ``wire_samples``' values, without the codecs."""
    path = _path_bytes(5, [("s0", True), ("s1", False), ("s2", True)])
    proof = (
        b"\x0b"  # TAG_REDEEM_PROOF
        + path  # msg_path
        + struct.pack(">I", 2) + path + _path_bytes(0, [("t0", False)])  # segments
        + _sha("block")  # block_hash
    )
    message = bytes.fromhex(GOLDEN["CscpMessage"])
    body = message + struct.pack(">I", 2) + b"pl" + proof
    body += struct.pack(">I", 64) + b"\x02" * 64 + struct.pack(">I", 64) + b"\x03" * 64
    return {
        "RedeemProof": proof,
        "RedeemTx": b"\x09" + body,  # TAG_REDEEM_TX
        "CswRedeemTx": b"\x0a" + body + _sha("null"),  # TAG_CSW_REDEEM_TX, then csw_nullifier
    }


@pytest.mark.parametrize("name", ["RedeemProof", "RedeemTx", "CswRedeemTx"])
def test_golden_redeem_encodings_follow_their_layout(name):
    """Redeem evidence is the message path, the count-prefixed segments and
    the block hash; a CSW redeem ends in its 32-byte nullifier."""
    assert GOLDEN[name] == _hand_assembled_redeem_vectors()[name].hex()


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


#: The codecs of 32-byte fields: digests, public keys, and the lists that
#: hold digests.
_FIXED_WIDTH = ("digest", "pubkey", "digest_list", "sibling_list")


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
    value = {"digest_list": (bad,), "sibling_list": ((bad, False),)}.get(kind, bad)
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_cut_and_every_extra_byte_is_a_decode_error(name):
    """Each strict prefix of a golden encoding stops at an inline bounds
    check, as a DecodeError (never a struct.error or an IndexError), and
    one byte more is the trailing-bytes refusal."""
    cls, golden = type(SAMPLES[name]), bytes.fromhex(GOLDEN[name])
    for cut in range(len(golden)):
        with pytest.raises(DecodeError, match=r"^need \d+ bytes at offset \d+, have \d+$"):
            cls.decode(golden[:cut])
    for extra in (b"\x00", b"\xff"):
        with pytest.raises(DecodeError, match="^1 trailing bytes$"):
            cls.decode(golden + extra)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_read_at_starts_and_ends_at_its_offsets(name):
    sample, golden = SAMPLES[name], bytes.fromhex(GOLDEN[name])
    data = b"\xa5" * 3 + golden + b"\x5a" * 2
    assert type(sample).read_at(data, 3) == (sample, 3 + len(golden))


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


# -- the generated constructors ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(WIRE_TYPES))
def test_constructor_signature_is_the_dataclass_one(name):
    """``wire`` writes each type's ``__init__``; its parameters are the ones
    ``dataclass`` would generate from the same fields."""
    cls = WIRE_TYPES[name]
    assert cls.__dataclass_params__.init is False and "__init__" in vars(cls)
    spec = [(f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default)) for f in fields(cls)]
    reference = make_dataclass(name, spec, frozen=True)

    def shape(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert shape(cls) == shape(reference)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_constructed_values_are_frozen_and_replace_round_trips(name):
    sample = SAMPLES[name]
    cls, values = type(sample), [getattr(sample, f.name) for f in fields(sample)]
    assert cls(*values) == sample == cls(**{f.name: v for f, v in zip(fields(sample), values)})
    assert list(vars(cls(*values))) == [f.name for f in fields(sample)]
    assert replace(sample) == sample
    for f in fields(sample):
        with pytest.raises(FrozenInstanceError):
            setattr(sample, f.name, getattr(sample, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(sample, f.name)
        assert replace(sample, **{f.name: getattr(sample, f.name)}) == sample


@pytest.mark.parametrize(
    "name,changes,message",
    [
        ("TokenInstance/nft", dict(fungibility=True, amount=None, token_id=None), "fungible instance carries an amount"),
        ("TokenInstance/nft", dict(fungibility=True, amount=0, token_id=None), "fungible amount must be positive"),
        ("TokenInstance/nft", dict(fungibility=False, token_id=1, amount=2), "non-fungible instance carries a token id"),
        ("TokenInstance/nft", dict(fungibility=False, token_id=-1), "token id must be nonnegative"),
        ("SentRecord/fungible", dict(fungibility=True, amount=0), "fungible sent record carries a positive amount only"),
        ("SentRecord/fungible", dict(fungibility=False, amount=1), "non-fungible sent record carries a token id only"),
    ],
)
def test_constructors_still_run_post_init(name, changes, message):
    base = SAMPLES[name]
    values = {f.name: getattr(base, f.name) for f in fields(base)}
    with pytest.raises(ValueError, match=message):
        type(base)(**{**values, **changes})
    with pytest.raises(ValueError, match=message):
        replace(base, **changes)


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
