"""Host-speed calibration: a fixed CPU kernel and reference-time scaling.

The benchmark host is a small VM whose vCPUs each drift in speed by
±15 % over 5-10 s, independently of each other, and swing by up to 2x
for a few hundred milliseconds when a neighbour loads the sibling
hardware thread.  A raw wall-clock timing therefore says as much about
the host as about the program.  Every timing the benchmark reports is
converted to *reference time* instead: the interval scaled by
``KERNEL_REF_MS / kernel_local``, where ``kernel_local`` is how long
the calibration kernel took on the same vCPU right around the interval.

The kernel is fixed forever (changing it changes every reported
number): integer arithmetic plus dict/tuple/list/str churn, the same
mix of interpreter work the program does, with the cyclic GC paused and
timed on the thread CPU clock.  It allocates only its own objects and
touches nothing of the program under test.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time
from contextlib import contextmanager

__all__ = ["KERNEL_REF_MS", "SETUP_WINDOW", "Timeline", "kernel_pass",
           "pin_to", "spread", "unpinned"]

#: thread-CPU milliseconds one kernel pass takes on the reference host
#: (the median on the 2-vCPU VM the benchmark was tuned on); reference
#: time is raw time scaled by KERNEL_REF_MS / measured kernel time
KERNEL_REF_MS = 3.0

#: kernel passes on each side of an interval that set its local speed
WINDOW = 2
#: passes on each side of a set-up: one long call, nothing to interleave
SETUP_WINDOW = 5

_ITERATIONS = 2000


def kernel_pass() -> float:
    """Run the calibration kernel once; its thread-CPU time in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        acc = 0
        table: dict[str, tuple] = {}
        recent: list[tuple] = []
        for i in range(_ITERATIONS):
            acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
            key = "k" + str(acc & 511)
            row = (key, acc >> 7, i)
            table[key] = row
            recent.append(row)
            if len(recent) > 64:
                recent.pop(0)
            hit = table.get("k" + str(i & 511))
            if hit is not None:
                acc ^= hit[1]
        acc += len(",".join(row[0] for row in recent[:16])) + len(table)
        elapsed = time.thread_time_ns() - start
    finally:
        if enabled:
            gc.enable()
    if acc < 0:  # never true; keeps the loop's result observable
        raise AssertionError(acc)
    return elapsed / 1e6


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


_host_cpus: set | None = None


def pin_to(cpus) -> None:
    """Restrict this process (and children it forks later) to cpus."""
    global _host_cpus
    if _host_cpus is None:
        _host_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))


@contextmanager
def unpinned():
    """Give back every vCPU :func:`pin_to` took away, for the block.

    Children forked in the block keep them: their work spreads over the
    host while this process's own timing stays on its vCPU after.
    """
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _host_cpus or pinned)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class Timeline:
    """Kernel samples interleaved with timed intervals of one run.

    Call :meth:`tick` between units of work and wrap each unit in
    :meth:`timed`; every interval then sits between two kernel samples,
    and its reference factor is ``KERNEL_REF_MS`` over the median of the
    ``WINDOW`` samples on each side of it (the smoothing that keeps one
    noisy pass from setting a whole interval's speed).
    """

    def __init__(self):
        self.kernel_ms: list[float] = []
        #: (label, start, raw seconds, lo, hi): the interval's factor is
        #: set by the kernel passes ``kernel_ms[lo:hi]``
        self.intervals: list[tuple] = []
        self._starts: list[float] = []

    def tick(self, passes: int = 1) -> None:
        for _ in range(passes):
            self.kernel_ms.append(kernel_pass())

    def _before(self, window: int) -> int:
        if not self.kernel_ms:
            raise RuntimeError("take a kernel sample before timing")
        return max(0, len(self.kernel_ms) - window)

    @contextmanager
    def timed(self, label: str, window: int = WINDOW):
        lo = self._before(window)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((label, start, time.perf_counter() - start,
                                   lo, len(self.kernel_ms) + window))

    def factor(self, interval: tuple) -> float:
        _, _, _, lo, hi = interval
        return KERNEL_REF_MS / statistics.median(self.kernel_ms[lo:hi])

    def reference(self, label: str) -> list[tuple[float, float]]:
        """``(reference seconds, raw seconds)`` of each ``label`` interval."""
        return [(iv[2] * self.factor(iv), iv[2])
                for iv in self.intervals if iv[0] == label]

    def total(self, label: str) -> tuple[float, float]:
        """Summed ``(reference, raw)`` seconds of the ``label`` intervals."""
        pairs = self.reference(label)
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    def factor_at(self, t: float) -> float:
        """Reference factor of the interval running at time ``t``."""
        if len(self._starts) != len(self.intervals):
            self._starts = [iv[1] for iv in self.intervals]
        at = max(0, bisect.bisect_right(self._starts, t) - 1)
        return self.factor(self.intervals[at])
