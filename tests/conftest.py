"""Fixtures shared by several test files."""
import pytest

from mitto import keys


@pytest.fixture
def real_verifies(monkeypatch):
    """The public keys of the Ed25519 verifications ``verify_sig`` really
    runs (each starts by loading its key), counted from an empty memo."""
    counted = []
    real = keys.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            counted.append(bytes(data))
            return real.from_public_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PublicKey", Counting)
    keys.forget_verified()
    yield counted
    keys.forget_verified()
