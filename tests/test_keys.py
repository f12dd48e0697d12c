"""Signature layer: deterministic derivation, 32-byte keys, tamper rejection,
and the verify memo."""
import pytest

from mitto import keys
from mitto.harness import World
from mitto.hashing import hash_bytes
from mitto.keys import KeyPair, PubKey, verify_sig
from mitto.scenario import parse_scenario


def test_public_keys_are_32_bytes():
    kp = KeyPair.from_label("actor", 0, "alice")
    assert len(kp.public) == 32
    with pytest.raises(ValueError):
        PubKey(b"\x00" * 31)


def test_derivation_is_deterministic():
    a = KeyPair.from_label("actor", 3, "alice")
    b = KeyPair.from_label("actor", 3, "alice")
    assert a.public == b.public
    digest = hash_bytes(b"msg")
    assert a.sign(digest) == b.sign(digest)


def test_distinct_labels_namespaces_seeds_give_distinct_keys():
    base = KeyPair.from_label("actor", 3, "alice").public
    assert KeyPair.from_label("actor", 3, "bob").public != base
    assert KeyPair.from_label("wcert", 3, "alice").public != base
    assert KeyPair.from_label("actor", 4, "alice").public != base


def test_sign_verify_roundtrip():
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    assert verify_sig(kp.public, digest, sig)


def test_wrong_digest_rejected():
    kp = KeyPair.from_label("actor", 0, "carol")
    sig = kp.sign(hash_bytes(b"one"))
    assert not verify_sig(kp.public, hash_bytes(b"two"), sig)


def test_wrong_key_rejected():
    kp = KeyPair.from_label("actor", 0, "carol")
    other = KeyPair.from_label("actor", 0, "dave")
    digest = hash_bytes(b"payload")
    assert not verify_sig(other.public, digest, kp.sign(digest))


def test_corrupt_signature_rejected():
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = bytearray(kp.sign(digest))
    sig[0] ^= 0x01
    assert not verify_sig(kp.public, digest, bytes(sig))


def test_garbage_signature_is_false_not_exception():
    kp = KeyPair.from_label("actor", 0, "carol")
    assert not verify_sig(kp.public, hash_bytes(b"x"), b"short")
    assert not verify_sig(kp.public, hash_bytes(b"x"), b"\x00" * 64)


# -- the verify memo -----------------------------------------------------------


def _flips(data: bytes):
    for bit in range(len(data) * 8):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


def test_repeated_check_runs_ed25519_once(real_verifies):
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    assert all(verify_sig(kp.public, digest, sig) for _ in range(3))
    assert not verify_sig(kp.public, hash_bytes(b"other"), sig)
    assert not verify_sig(kp.public, hash_bytes(b"other"), sig)
    assert len(real_verifies) == 2


@pytest.mark.parametrize("cached_first", [False, True], ids=["cold", "valid-triple-cached"])
def test_every_flipped_bit_reaches_the_verifier(real_verifies, cached_first):
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    if cached_first:
        assert verify_sig(kp.public, digest, sig)
    start = len(real_verifies)
    flipped = (
        [(kp.public, digest, s) for s in _flips(sig)]
        + [(kp.public, d, sig) for d in _flips(digest)]
        + [(k, digest, sig) for k in _flips(kp.public)]
    )
    for triple in flipped:
        before = len(real_verifies)
        assert verify_sig(*triple) is False
        assert len(real_verifies) == before + 1, triple
    assert len(real_verifies) - start == (64 + 32 + 32) * 8


def test_memo_key_is_not_the_joined_bytes(real_verifies):
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    assert verify_sig(kp.public, digest, sig)
    # A 31-byte key whose missing byte starts the digest joins to the same bytes.
    shifted = (kp.public[:31], kp.public[31:] + digest, sig)
    assert b"".join(shifted) == b"".join((kp.public, digest, sig))
    assert verify_sig(*shifted) is False
    assert len(real_verifies) == 2


def test_memo_starts_over_when_full(real_verifies, monkeypatch):
    monkeypatch.setattr(keys, "VERIFY_MEMO_MAX", 4)
    kp = KeyPair.from_label("actor", 0, "carol")
    digests = [hash_bytes(bytes([i])) for i in range(6)]
    for digest in digests:
        assert verify_sig(kp.public, digest, kp.sign(digest))
    assert len(keys._verified) <= 4
    assert verify_sig(kp.public, digests[0], kp.sign(digests[0]))
    assert len(real_verifies) == 7


def test_new_world_starts_with_an_empty_memo(real_verifies):
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    assert verify_sig(kp.public, digest, kp.sign(digest))
    assert keys._verified
    World(parse_scenario({"name": "w", "seed": 1, "chains": [{"label": "alpha", "epoch_length": 2}], "steps": []}))
    assert keys._verified == {}
    assert verify_sig(kp.public, digest, kp.sign(digest))
    assert len(real_verifies) == 2
