"""A host-speed-normalized clock for timing on a noisy shared host.

On a few vCPUs of a shared machine the interpreter's speed changes by up
to 1.7x within fractions of a second, as neighbours come and go on the
same physical cores, so raw wall times of the same code differ from run
to run by more than any useful regression bound.  :class:`HostClock` samples a
fixed reference kernel every ``PERIOD_S`` of wall time from a
``SIGALRM`` handler and advances a virtual clock at the speed that
kernel shows: an interval of wall time ``dt`` during which the kernel
took ``k`` seconds counts as ``dt * NOMINAL_S / k``.  Time spent in the
handler is not counted.

The result is in *normalized seconds*: host seconds on a host where the
reference kernel takes ``NOMINAL_S``.  A change that makes the simulator
faster makes it faster in normalized seconds too; only the host's own
speed changes are divided out.  Different code slows by somewhat
different amounts when the host does, so what remains is a spread of a
few percent instead of tens.
"""

from __future__ import annotations

import hmac
import signal
import struct
from time import perf_counter
from typing import List

#: Wall time between two samples of the reference kernel.
PERIOD_S = 0.005
#: Reference-kernel time that defines one normalized second: about its
#: time on a 2-vCPU Xeon VM (Python 3.11) in that host's faster state.
NOMINAL_S = 1.0e-4
#: Samples whose median gives the current speed (rejects interrupts).
WINDOW = 3


class _Node:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return (value * self.scale + self.offset) & 0xFFFF


_NODE = _Node(3, 7)
_MAP = {key: key * 2 for key in range(256)}
_PAIR = struct.Struct("<QQ")
_KEY = bytes(range(32))
_BLOCK = bytes(range(64))


def reference_kernel() -> int:
    """A fixed mix of the kinds of work the simulator does, on a working
    set small enough to stay in the core's caches (so a sample measures
    the core's speed, not what the interrupted code left in the caches)
    and allocating no container objects: method calls on a slotted
    object and dict lookups, struct packing, and HMAC-SHA-256 of 64-byte
    blocks as the MEE model computes them.  The three parts take about
    equal time; different code slows by different amounts when the host
    does, and the mix averages them."""
    acc = 0
    node, mapping, pair = _NODE, _MAP, _PAIR
    value = 1
    for _ in range(256):
        value = node.step(value)
        acc += mapping[value & 255]
    for index in range(128):
        acc += int.from_bytes(pair.pack(index, value), "little")
    for _ in range(12):
        acc += hmac.digest(_KEY, _BLOCK, "sha256")[0]
    return acc


class HostClock:
    """Virtual clock in normalized seconds, running while the context is
    entered.  Outside it, or in a process that never enters it, use
    ``time.perf_counter`` instead."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: (virtual seconds at ``last``, wall time of the last tick, speed
        #: factor), replaced as one tuple so ``now`` never sees half an update
        self._state = (0.0, 0.0, 1.0)

    def _sample(self) -> float:
        started = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - started)
        recent = sorted(self.samples[-WINDOW:])
        return NOMINAL_S / recent[len(recent) // 2]

    def _tick(self, signum: int, frame: object) -> None:
        virtual, last, _ = self._state
        started = perf_counter()
        factor = self._sample()
        self._state = (virtual + (started - last) * factor, perf_counter(), factor)

    def now(self) -> float:
        virtual, last, factor = self._state
        return virtual + (perf_counter() - last) * factor

    def __enter__(self) -> "HostClock":
        for _ in range(WINDOW):
            factor = self._sample()
        self._state = (0.0, perf_counter(), factor)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
