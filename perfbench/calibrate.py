"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared virtual machines, where the same Python work
can run 1.3 to 2 times slower for seconds to minutes at a time, and where a
process on the other vCPU does not see the slowdown. A slowdown that lasts a
whole run moves its median as much as a real regression would. So the timed
region itself is interleaved with a fixed calibration block that never calls
the package: one block when the region starts, one when it stops, and one
every TICK_S seconds in between, run from a SIGALRM handler. The block time
is left out of the region's time, and the region's time is divided by the
mean host factor (block time divided by REFERENCE_S) of its blocks. The
scaled time is the time the region would have taken on a host where the
block takes REFERENCE_S. A change to the package cannot change the block,
so scaled times still move with the program.
"""
from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import struct
from time import perf_counter

# About the median block time on an idle 2-vCPU x86_64 VM (Python 3.11).
REFERENCE_S = 0.0045
TICK_S = 0.2

_ROWS = 12_000


class _Person:
    def __init__(self, i: int) -> None:
        self.id = f"p{i:04d}"
        self.heart_rate = 60.0 + i % 40


# Long-lived objects scattered over the heap, like a loaded population.
_PEOPLE = [_Person(i) for i in range(1_000)]
_RNG = random.Random(0)


def _block() -> float:
    """Small-object churn, attribute reads, list slicing, struct packing,
    dict inserts and one-at-a-time random draws: the mix of work the
    package's ops do, from the standard library only so that it can run
    before numpy is imported."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the op's objects must not land in here
    try:
        start = perf_counter()
        rows = [(i, i * 0.5, "variance") for i in range(_ROWS)]
        acc = 0.0
        for _, v, _ in rows:
            if abs(v - acc) > 0.1 * abs(v):
                acc += v * 1e-9
        out = bytearray()
        for t, v, _ in rows[:4_000]:
            out += struct.pack(">Id", t, v)
        table = {t: v for t, v, _ in rows}
        acc += sum(table.values())
        for i in range(0, len(_PEOPLE), 100):
            rest = _PEOPLE[:i] + _PEOPLE[i + 1:]
            acc += sum(p.heart_rate for p in rest) / len(rest)
        for _ in range(4_000):
            acc += math.log(1.0 - _RNG.random())
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    """The first blocks of a fresh interpreter run slow; run them untimed."""
    _block()
    _block()


class HostClock:
    """Times a `with` region: `wall` seconds without the blocks, and `scaled`,
    the wall time divided by the mean host factor of the region's blocks.
    (Over long ops the mean tracked the op's slowdown more closely than the
    median, which ignores the short slow stretches the op also ran through.)

    With ticks=False only the blocks at the region's ends run, so no block
    lands inside the region; the traced run needs that for its span times.
    """

    def __init__(self, ticks: bool = True) -> None:
        self.ticks = ticks
        self.wall = 0.0
        self.factors: list[float] = []

    def _sample(self) -> None:
        self.wall += perf_counter() - self._since
        self.factors.append(_block() / REFERENCE_S)
        self._since = perf_counter()

    def __enter__(self) -> "HostClock":
        self.factors.append(_block() / REFERENCE_S)
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, lambda *_: self._sample())
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._since = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def scaled(self) -> float:
        return self.wall / statistics.fmean(self.factors)
