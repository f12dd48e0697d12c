"""Ed25519 identities for actors and sidechain provers.

Ed25519 is deterministic and its raw public keys are exactly 32 bytes, so
one key type serves actor identities, receiver addresses, and the per-
sidechain proving keys alike. Keys derive from 32-byte seeds, which keeps
whole simulations reproducible from a single scenario seed.

``verify_sig`` remembers each (key, digest, signature) it has checked. One
signature is checked several times along a message's path (the sending
chain's gate and rule send-4, then the receiving chain's rule redeem-5),
and only the first check runs Ed25519. The memo holds one world's checks:
``harness.World`` empties it when it is built, and it empties itself at
``VERIFY_MEMO_MAX`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .hashing import Digest, hash_bytes


class PubKey(bytes):
    """A raw 32-byte Ed25519 public key."""

    def __new__(cls, value: bytes) -> "PubKey":
        if len(value) != 32:
            raise ValueError(f"public key must be 32 bytes, got {len(value)}")
        return super().__new__(cls, value)


Signature = bytes


@lru_cache(maxsize=4096)
def _private_from_seed(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    public: PubKey = field(init=False)

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("key seed must be 32 bytes")
        raw = (
            _private_from_seed(self.seed)
            .public_key()
            .public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        )
        object.__setattr__(self, "public", PubKey(raw))

    @classmethod
    def from_label(cls, namespace: str, seed: int, label: str) -> "KeyPair":
        """Derive a reproducible keypair from a scenario seed and a name."""
        material = hash_bytes(namespace.encode() + seed.to_bytes(8, "big") + label.encode())
        return cls(seed=bytes(material))

    def sign(self, digest: Digest) -> Signature:
        return _private_from_seed(self.seed).sign(bytes(digest))


#: Entries at which the verify memo starts over.
VERIFY_MEMO_MAX = 1 << 14

# (public, digest, signature) -> verify_sig's result. Keyed by the tuple of
# the three byte strings, never their concatenation: the lengths are not
# enforced, so two different triples can join to the same bytes.
_verified: dict[tuple[bytes, bytes, bytes], bool] = {}


def forget_verified() -> None:
    """Empty the verify memo."""
    _verified.clear()


def verify_sig(public: PubKey, digest: Digest, signature: Signature) -> bool:
    """True iff ``signature`` is a valid signature on ``digest`` under ``public``."""
    triple = (bytes(public), bytes(digest), bytes(signature))
    known = _verified.get(triple)
    if known is not None:
        return known
    try:
        Ed25519PublicKey.from_public_bytes(triple[0]).verify(triple[2], triple[1])
        valid = True
    except (InvalidSignature, ValueError):
        valid = False
    if len(_verified) >= VERIFY_MEMO_MAX:
        _verified.clear()
    _verified[triple] = valid
    return valid
