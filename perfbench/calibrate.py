"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few virtual CPUs of a shared host. Load that other
tenants put on the same physical cores slows every instruction of this
process, for seconds to minutes at a time, so that the same round of steps
can take twice as long; that shows in process CPU time as much as in wall
time, so no clock of this process can separate it from the code's own cost.
What it can do is time a fixed piece of work, ``kernel``, right before and
after each stretch of simulator work and express the stretch in units of
the kernel's speed at that moment. Code that the host's load slows more or
less than the kernel keeps part of the drift: the ``csw_redeem`` steps that
make up the ``ceased_recovery`` tail moved about 20% further than the kernel
when the host changed state.

``kernel`` is frozen and depends on nothing in ``mitto``, so a change to
the simulator moves the normalised figures and the kernel does not. Its mix
follows the simulator's: pure-Python object building and a length-prefixed
byte encoder (the bulk of a step), SHA-256 over the encoding, and one
Ed25519 signature check per pass (about a fifth of the time, as in the
``fuzz`` profile).

``Speedometer`` turns wall time into *reference seconds*: seconds on a host
that runs ``kernel`` in ``NOMINAL_KERNEL_S``. That constant is the kernel's
time on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11, when
no other tenant loaded the host. It only sets the scale; a figure is
compared with figures from the same host.
"""
from __future__ import annotations

import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

NOMINAL_KERNEL_S = 0.0005
# Simulator work between two kernel passes. Shorter tracks the host's speed
# more closely and costs more kernel time; at 10 ms the kernel takes 5-10%
# of a run, and the steps of the slowest twentieth get the factor of their
# own moment rather than a neighbour's, which p95 needs.
SEGMENT_S = 0.010
_RECORDS = 24

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"perfbench host-speed reference"
_SIGNATURE = _KEY.sign(_MESSAGE)


def _encode(value) -> bytes:
    if isinstance(value, dict):
        return b"d" + b"".join(_encode(k) + _encode(value[k]) for k in sorted(value)) + b"e"
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(_encode(item) for item in value) + b"e"
    if isinstance(value, int):
        return b"i" + value.to_bytes(8, "big", signed=True)
    if isinstance(value, str):
        value = value.encode()
    return len(value).to_bytes(4, "big") + value


def kernel() -> bytes:
    """One fixed pass of reference work; returns its digest chain."""
    digest = bytes(32)
    for i in range(_RECORDS):
        record = {
            "index": i,
            "label": f"token-{i}",
            "owner": digest[:8],
            "amounts": [i, i * 3, i * 7],
            "meta": {"epoch": i // 4, "parent": digest[8:16], "tags": ("a", "b")},
        }
        digest = hashlib.sha256(_encode(record)).digest()
    _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return digest


def kernel_seconds(passes: int = 1) -> float:
    """Time of one kernel pass: the median of ``passes`` timed passes."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Wall time in reference seconds, one segment at a time.

    ``mark`` closes the open segment once it is ``SEGMENT_S`` old (at once
    with ``force``): it times one kernel pass and gives the segment the
    factor ``NOMINAL_KERNEL_S`` over the mean of the two passes that bracket
    it. Kernel time is never part of a segment. A sample taken inside
    segment ``segment`` is scaled by ``factors[segment]`` once it closed."""

    def __init__(self) -> None:
        self.kernel_s = [kernel_seconds()]
        self.factors: list[float] = []
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._lapped = 0.0
        self._start = time.perf_counter()

    @property
    def segment(self) -> int:
        return len(self.factors)

    def mark(self, force: bool = False) -> None:
        wall = time.perf_counter() - self._start
        if wall < SEGMENT_S and not force:
            return
        after = kernel_seconds()
        factor = NOMINAL_KERNEL_S / ((self.kernel_s[-1] + after) / 2)
        self.kernel_s.append(after)
        self.factors.append(factor)
        self.wall_s += wall
        self.reference_s += wall * factor
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Close the open segment now; reference seconds since the last lap."""
        self.mark(force=True)
        since = self.reference_s - self._lapped
        self._lapped = self.reference_s
        return since
