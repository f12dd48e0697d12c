"""Fixtures shared by several test files."""
import inspect

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


@pytest.fixture
def counted(monkeypatch):
    """``counted(owner, name)`` replaces ``owner.name`` (a function, or a
    static method kept static) by a wrapper that notes each call, and
    returns the list of notes."""

    def count(owner, name: str) -> list:
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(None)
            return real(*args)

        static = isinstance(inspect.getattr_static(owner, name), staticmethod)
        monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)
        return calls

    return count
