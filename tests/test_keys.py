"""Signature layer: deterministic derivation, 32-byte keys, tamper rejection,
and the verify memo, for signatures and for withdrawal proofs."""
import ctypes
import gc
import importlib.util
from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from worlds import CEASED, held_withdrawal, run_stage

from mitto import keys
from mitto.harness import Runner, World
from mitto.hashing import hash_bytes
from mitto.keys import KeyPair, PubKey, verify_sig
from mitto.proofs import CswBundle, verify_csw
from mitto.scenario import parse_scenario


def test_public_keys_are_32_bytes():
    kp = KeyPair.from_label("actor", 0, "alice")
    assert len(kp.public) == 32


def test_public_keys_are_plain_bytes():
    public = KeyPair.from_label("actor", 0, "alice").public
    assert type(public) is PubKey is bytes
    assert not gc.is_tracked(public)


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


@pytest.mark.parametrize("extra", [b"\x00", b"\xff"], ids=["00", "ff"])
def test_over_long_signature_or_key_never_verifies(extra):
    """A valid signature or key with a byte appended is refused, though its
    first 64 (or 32) bytes verify."""
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    assert verify_sig(kp.public, digest, sig)
    assert verify_sig(kp.public, digest, sig + extra) is False
    assert verify_sig(kp.public + extra, digest, sig) is False


@pytest.mark.parametrize("length", [31, 33])
def test_seed_of_the_wrong_length_is_refused(length):
    with pytest.raises(ValueError):
        KeyPair(seed=bytes(range(length)))


def test_missing_libsodium_is_an_import_error_naming_it(monkeypatch):
    def missing(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    spec = importlib.util.spec_from_file_location("mitto.keys_without_sodium", keys.__file__)
    with pytest.raises(ImportError, match=r"libsodium\.so\.23"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


# -- the reference implementation ----------------------------------------------
#
# Ed25519 is deterministic (RFC 8032): OpenSSL, through ``cryptography``, must
# give the same keys, signatures and verdicts as the backend ``mitto.keys`` uses.

REFERENCE_SEEDS = [bytes(32), b"\xff" * 32, bytes(range(32))] + [hash_bytes(bytes([i])) for i in range(13)]


def _reference_verdict(public: bytes, digest: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, digest)
    except (InvalidSignature, ValueError):
        return False
    return True


@pytest.mark.parametrize("seed", REFERENCE_SEEDS, ids=lambda seed: seed[:4].hex())
def test_keys_and_signatures_match_the_reference(seed):
    kp = KeyPair(seed=seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    assert kp.public == reference.public_key().public_bytes_raw()
    for digest in (hash_bytes(seed), bytes(32), b"", bytes(range(100))):
        assert kp.sign(digest) == reference.sign(digest)


def test_verdicts_match_the_reference_on_every_flipped_bit():
    kp = KeyPair.from_label("actor", 0, "carol")
    digest = hash_bytes(b"payload")
    sig = kp.sign(digest)
    triples = (
        [(kp.public, digest, sig)]
        + [(kp.public, digest, s) for s in _flips(sig)]
        + [(kp.public, d, sig) for d in _flips(digest)]
        + [(k, digest, sig) for k in _flips(kp.public)]
    )
    assert len(triples) == 1 + (64 + 32 + 32) * 8
    verdicts = [verify_sig(*triple) for triple in triples]
    assert verdicts == [_reference_verdict(*triple) for triple in triples]
    assert verdicts == [True] + [False] * (len(triples) - 1)


# -- key lifetime --------------------------------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    """The seeds of the Ed25519 keys derived through ``mitto.keys``."""
    derived = []
    real = keys._seed_keypair

    def counting(public, secret, seed):
        derived.append(bytes(seed))
        return real(public, secret, seed)

    monkeypatch.setattr(keys, "_seed_keypair", counting)
    return derived


def _two_chain_scenario(steps=()):
    wbt = {"name": "WBT", "fungible": True, "amount": 100, "owner": "alice"}
    chains = [{"label": "alpha", "epoch_length": 2, "issuances": [wbt]}, {"label": "beta", "epoch_length": 2}]
    return parse_scenario({"name": "keys", "seed": 9, "chains": chains, "steps": list(steps)})


def test_each_world_derives_its_own_keys(derivations):
    """Keys belong to the world that made them: a second world of the same
    scenario derives the same keys again rather than finding the first
    world's."""
    scenario = _two_chain_scenario()
    first = World(scenario)
    made_by_first = list(derivations)
    second = World(scenario)
    assert made_by_first  # two proving keys per chain and the issuer
    assert derivations[len(made_by_first):] == made_by_first
    assert [c.wcert_signer.public for c in first.chains.values()] == [c.wcert_signer.public for c in second.chains.values()]


def test_a_world_derives_its_forger_once(derivations):
    send = {"op": "send", "from": "alpha", "to": "beta", "name": "WBT", "amount": 10, "owner": "alice",
            "receiver": "bob", "tamper": "wrong_signer", "expect": {"accepted": False}}
    scenario = _two_chain_scenario([send, send, send])
    forger_seed = KeyPair.from_label("forger", scenario.seed, "forger").seed
    del derivations[:]
    assert Runner(scenario).run()["ok"] is True
    assert derivations.count(forger_seed) == 1


def test_signing_derives_nothing(derivations):
    kp = KeyPair.from_label("actor", 0, "carol")
    assert derivations == [kp.seed]
    for i in range(3):
        assert verify_sig(kp.public, hash_bytes(bytes([i])), kp.sign(hash_bytes(bytes([i]))))
    assert derivations == [kp.seed]


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


class TestCswMemo:
    """verify_csw results are remembered per exact (vk, input, proof) for
    one world, under the lifecycle of the signature memo."""

    @pytest.fixture
    def bodies(self, counted, real_verifies):
        """One entry per run of verify_csw's body (each starts by decoding
        the bundle), counted from an empty memo."""
        return counted(CswBundle, "decode")

    def triple(self):
        w, _ = run_stage(CEASED)
        alpha = w.chains["alpha"]
        pkg = held_withdrawal(w)
        vk = w.mainchain.record(alpha.sc_id).registration.csw_vk
        pub = w.mainchain.csw_input(pkg.csw)
        return vk, pub, pkg.csw.proof

    def test_prover_check_makes_the_settlement_check_a_lookup(self, bodies):
        vk, pub, proof = self.triple()
        assert len(bodies) == 1  # prove_csw's own check
        assert verify_csw(vk, pub, proof)
        assert verify_csw(replace(vk), replace(pub), replace(proof))  # equal values, new objects
        assert len(bodies) == 1

    def test_every_flipped_bit_misses_the_memo(self, bodies):
        vk, pub, proof = self.triple()
        assert verify_csw(vk, pub, proof)
        mutants = [(replace(vk, params=p), pub, proof) for p in _flips(vk.params)]
        for name in ("last_cert_block_hash", "nullifier", "receiver", "proofdata_root"):
            mutants += [(vk, replace(pub, **{name: type(getattr(pub, name))(f)}), proof)
                        for f in _flips(getattr(pub, name))]
        mutants += [(vk, replace(pub, amount=pub.amount ^ (1 << k)), proof) for k in range(64)]
        mutants += [(vk, pub, replace(proof, body=b)) for b in _flips(proof.body)]
        assert len(mutants) == 32 * 8 * 5 + 64 + len(proof.body) * 8
        start = len(bodies)
        for mutant in mutants:
            before = len(bodies)
            assert verify_csw(*mutant) is False
            assert len(bodies) == before + 1
        assert len(bodies) - start == len(mutants)
        assert verify_csw(vk, pub, proof)
        assert len(bodies) - start == len(mutants)

    def test_new_world_starts_with_an_empty_memo(self, bodies):
        vk, pub, proof = self.triple()
        assert keys._verified
        World(parse_scenario({"name": "w", "seed": 1, "chains": [{"label": "alpha", "epoch_length": 2}], "steps": []}))
        assert keys._verified == {}
        assert verify_csw(vk, pub, proof)
        assert len(bodies) == 2

    def test_memo_starts_over_when_full(self, bodies, monkeypatch):
        vk, pub, proof = self.triple()
        monkeypatch.setattr(keys, "VERIFY_MEMO_MAX", 4)
        for k in range(6):
            assert verify_csw(vk, replace(pub, amount=1 << k), proof) is False
            assert len(keys._verified) <= 4
        before = len(bodies)
        assert verify_csw(vk, pub, proof)
        assert len(bodies) == before + 1

    def test_scheme_mismatch_verifies_false(self, bodies):
        vk, pub, proof = self.triple()
        before = len(bodies)
        for _ in range(2):
            assert verify_csw(vk, pub, replace(proof, scheme_id=proof.scheme_id + 1)) is False
            assert verify_csw(replace(vk, scheme_id=vk.scheme_id + 1), pub, proof) is False
        assert len(bodies) == before  # refused before the body is decoded
