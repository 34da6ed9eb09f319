"""Host-speed probe: timings expressed at one reference host speed.

The benchmark runs on a share of a machine whose speed moves with
other tenants' load: a fixed pure-Python loop takes anywhere from 1x
to 2x its best time, changing within a second, and CPU time moves with
wall time (the vCPU is slowed, not descheduled).  Runs of the same
code minutes apart therefore differ by more than any bound a benchmark
could keep.

A ``Sampler`` times a fixed loop that needs nothing but the
interpreter and a small dict, when it is created, between ops at most
every ``INTERVAL_S`` while the program works, and when it is closed.
The program under test never runs in the loop, so no change to the
program moves it.  ``run.py`` takes the time spent in the loop out of
the stretch's wall time and multiplies the rest by ``REFERENCE_S``
over the loop's mean time: the time the stretch would have taken on a
host where the loop takes ``REFERENCE_S``.  On a quiet development
host (2-vCPU Xeon VM, Python 3.11) the loop takes about
``REFERENCE_S``, so scaled and wall-clock figures are close there.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

#: Loop time of the reference host, in seconds.
REFERENCE_S = 0.001
#: Least wall time between two probes while the program works.
INTERVAL_S = 0.02
_STEPS = 9000


def _loop() -> int:
    total = 0
    table = {}
    for step in range(_STEPS):
        total += step * 3 % 7
        table[step & 1023] = total
    return total


def _timed_loop() -> float:
    """Wall time of one pass of the loop, with the cyclic GC off so a
    collection over the program's heap never lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _loop()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def idle() -> None:
    """``between_ops`` for work that is not measured."""


class Sampler:
    """Host-speed samples over one stretch of program work."""

    def __init__(self) -> None:
        self.loops = [_timed_loop()]
        #: When each pass of the loop ended.
        self.ends = [perf_counter()]
        #: Wall time spent in the loop since creation.
        self.spent = 0.0

    def between_ops(self) -> None:
        """Called by a workload between two ops."""
        now = perf_counter()
        if now - self.ends[-1] >= INTERVAL_S:
            self.loops.append(_timed_loop())
            self.ends.append(perf_counter())
            self.spent += self.ends[-1] - now

    def close(self) -> float:
        """Last sample; the factor that turns the stretch's wall time,
        less ``spent``, into reference-host time."""
        self.loops.append(_timed_loop())
        self.ends.append(perf_counter())
        return REFERENCE_S / statistics.fmean(self.loops)

    def factor_at(self, started: float) -> float:
        """The factor for one op that started at ``started``, from the
        passes just before and just after it (call after ``close``)."""
        index = bisect.bisect_right(self.ends, started) - 1
        index = max(0, min(index, len(self.loops) - 2))
        return REFERENCE_S / ((self.loops[index] + self.loops[index + 1])
                              / 2)
