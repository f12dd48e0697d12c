"""Ed25519 identities for actors and sidechain provers.

Ed25519 is deterministic and its raw public keys are exactly 32 bytes, so
one key type serves actor identities, receiver addresses, and the per-
sidechain proving keys alike. Keys derive from 32-byte seeds, which keeps
whole simulations reproducible from a single scenario seed. A key is plain
``bytes``, untracked by the cyclic garbage collector. Its 32-byte rule is
kept where bytes cross a boundary: the wire codecs read and write exactly
32 bytes for it, and a verifier checks a verification key's length before
taking its params as a key.

Ed25519 runs in libsodium (1.0.18 or later, loaded as ``libsodium.so.23``)
through ``ctypes``: one call derives a pair from its seed, one signs and one
verifies. Any backend that follows RFC 8032 gives the same public keys and
signatures, byte for byte. libsodium reads a
key and a signature by position, not by length: it would read past a short
buffer and ignore what follows the first 64 bytes of a long signature. So
``verify_sig`` is false for a key of other than 32 bytes or a signature of
other than 64, checked before any buffer is passed, and a seed of other
than 32 bytes is refused. Each call writes its result into an output buffer
made once, at import, and the result is copied out as ``bytes``: a buffer
made per call would be one more object for the cyclic collector on every
sign. The simulator runs in one thread, so no two calls share a buffer.

A ``KeyPair`` derives its 64-byte libsodium secret key once, when it is
made, and keeps it as plain ``bytes``: the key lives exactly as long as the
pair. ``harness.World`` holds its actors' pairs and its forger, and each
``Sidechain`` its two proving keys, so a world's keys die with the world.
No cache outlives a world: each world has its own scenario seed, so no
later world asks for the same keys.

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

import ctypes
from dataclasses import dataclass, field
from functools import wraps

from .hashing import Digest, hash_bytes

_SONAME = "libsodium.so.23"
try:
    _sodium = ctypes.CDLL(_SONAME)
except OSError as missing:
    raise ImportError(f"mitto needs libsodium >= 1.0.18 ({_SONAME}): {missing}") from missing


def _function(name: str, *argtypes):
    """The libsodium function ``name``, which takes ``argtypes`` and returns an int."""
    call = getattr(_sodium, name)
    call.argtypes, call.restype = argtypes, ctypes.c_int
    return call


# libsodium's contract: initialise once before any other call (-1 on failure).
if _function("sodium_init")() < 0:
    raise ImportError(f"{_SONAME}: sodium_init failed")

_buf, _len = ctypes.c_char_p, ctypes.c_ulonglong
# (pk out, sk out, seed)
_seed_keypair = _function("crypto_sign_ed25519_seed_keypair", _buf, _buf, _buf)
# (sig out, siglen out or NULL, message, message length, sk)
_sign_detached = _function("crypto_sign_ed25519_detached", _buf, ctypes.c_void_p, _buf, _len, _buf)
# (sig, message, message length, pk) -> 0 iff valid
_verify_detached = _function("crypto_sign_ed25519_verify_detached", _buf, _buf, _len, _buf)

# Output buffers, made once and reused by every call: the simulator is
# single-threaded, and each result is copied out with ``.raw`` at once.
_PUBLIC = ctypes.create_string_buffer(32)
_SECRET = ctypes.create_string_buffer(64)
_SIGNATURE = ctypes.create_string_buffer(64)


#: A raw 32-byte Ed25519 public key, as plain ``bytes``, like a signature.
PubKey = Signature = bytes


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    public: PubKey = field(init=False)
    _secret: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("key seed must be 32 bytes")
        _seed_keypair(_PUBLIC, _SECRET, self.seed)
        object.__setattr__(self, "_secret", _SECRET.raw)
        object.__setattr__(self, "public", _PUBLIC.raw)

    @classmethod
    def from_label(cls, namespace: str, seed: int, label: str) -> "KeyPair":
        """Derive a reproducible keypair from a scenario seed and a name."""
        material = hash_bytes(namespace.encode() + seed.to_bytes(8, "big") + label.encode())
        return cls(seed=material)

    def sign(self, digest: Digest) -> Signature:
        _sign_detached(_SIGNATURE, None, digest, len(digest), self._secret)
        return _SIGNATURE.raw


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
    return _ed25519_verify(public, digest, signature)


def _ed25519_verify(public: PubKey, digest: Digest, signature: Signature) -> bool:
    """One Ed25519 verification, outside the memo: false for a key or a
    signature of the wrong length, which never reaches libsodium."""
    if len(public) != 32 or len(signature) != 64:
        return False
    return _verify_detached(signature, digest, len(digest), public) == 0
