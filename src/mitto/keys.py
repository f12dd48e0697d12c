"""Ed25519 identities for actors and sidechain provers.

Ed25519 is deterministic and its raw public keys are exactly 32 bytes, so
one key type serves actor identities, receiver addresses, and the per-
sidechain proving keys alike. Keys derive from 32-byte seeds, which keeps
whole simulations reproducible from a single scenario seed. A key is plain
``bytes``, untracked by the cyclic garbage collector. Its 32-byte rule is
kept where bytes cross a boundary: the wire codecs read and write exactly
32 bytes for it, and a verifier checks a verification key's length before
taking its params as a key.

A ``KeyPair`` derives its private key object once, when it is made, and
keeps it: the key lives exactly as long as the pair. ``harness.World``
holds its actors' pairs and its forger, and each ``Sidechain`` its two
proving keys, so a world's keys die with the world. No cache outlives a
world: each world has its own scenario seed, so no later world asks for
the same keys.

The verify memo keeps the result of each pure check made through a
``remembered`` verifier, under the exact arguments it was given.
``verify_sig`` is one: a signature is checked several times along a
message's path (the sending chain's gate and rule send-4, then the
receiving chain's rule redeem-5), and only the first check runs Ed25519.
``proofs.verify_csw`` is the other: a withdrawal proof is verified by its
prover and again by the settlement chain. The memo holds one world's
checks: ``harness.World`` empties it when it is built, and it empties
itself at ``VERIFY_MEMO_MAX`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .hashing import Digest, hash_bytes


#: A raw 32-byte Ed25519 public key, as plain ``bytes``, like a signature.
PubKey = Signature = bytes


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    public: PubKey = field(init=False)
    _private: Ed25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("key seed must be 32 bytes")
        private = Ed25519PrivateKey.from_private_bytes(self.seed)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "public", private.public_key().public_bytes_raw())

    @classmethod
    def from_label(cls, namespace: str, seed: int, label: str) -> "KeyPair":
        """Derive a reproducible keypair from a scenario seed and a name."""
        material = hash_bytes(namespace.encode() + seed.to_bytes(8, "big") + label.encode())
        return cls(seed=material)

    def sign(self, digest: Digest) -> Signature:
        return self._private.sign(digest)


#: Entries at which the verify memo starts over.
VERIFY_MEMO_MAX = 1 << 14

# (verifier, *arguments) -> the verifier's result. Keyed by the argument
# values themselves, never a digest or a concatenation of them: byte string
# lengths are not enforced, so two different triples can join to the same
# bytes.
_verified: dict[tuple, bool] = {}


def forget_verified() -> None:
    """Empty the verify memo."""
    _verified.clear()


def remembered(verify):
    """``verify`` with its results kept in the verify memo. Only for a pure
    check, whose result depends on its (hashable) arguments alone."""

    @wraps(verify)
    def check(*args) -> bool:
        key = (verify, *args)
        known = _verified.get(key)
        if known is not None:
            return known
        valid = verify(*args)
        if len(_verified) >= VERIFY_MEMO_MAX:
            _verified.clear()
        _verified[key] = valid
        return valid

    return check


@remembered
def verify_sig(public: PubKey, digest: Digest, signature: Signature) -> bool:
    """True iff ``signature`` is a valid signature on ``digest`` under ``public``."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, digest)
    except (InvalidSignature, ValueError):
        return False
    return True
