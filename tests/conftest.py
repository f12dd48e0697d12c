"""Fixtures shared by several test files."""
import inspect

import pytest

from oracles import Findings, OracleRunner

from mitto import fuzz, keys

FUZZ_SEED = 20260817
FUZZ_COUNT = 1000
#: The dump and accountant references check this prefix of the fuzz corpus.
FULL_TRACES = 200


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
    """``counted(owner, name)`` replaces ``owner.name`` (a function or a
    class, or a static method kept static) by a wrapper that notes each
    call, and returns the list of notes."""

    def count(owner, name: str) -> list:
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        static = isinstance(inspect.getattr_static(owner, name), staticmethod)
        monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)
        return calls

    return count


@pytest.fixture(scope="session")
def fuzz_corpus():
    """The acceptance suite's fuzz corpus, every trace run once under the
    ``OracleRunner`` (the first ``FULL_TRACES`` with every oracle, the rest
    with the light ones); what the oracles saw is under ``"oracles"``."""
    findings = Findings()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "Runner", lambda s: OracleRunner(s, findings, full=findings.full_runs < FULL_TRACES))
        corpus = fuzz.run_fuzz(FUZZ_SEED, FUZZ_COUNT)
    return {**corpus, "oracles": findings}
