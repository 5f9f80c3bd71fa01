"""The speed reference of the benchmark: a fixed pure-Python loop, timed
between operations.

The machines the benchmark runs on are shared, and their speed drifts:
on a 2-vCPU x86-64 VM a fixed loop took anywhere from 1.0 to 1.4 times its
best time from one second to the next, with CPU time tracking wall time.
Wall-clock figures of two runs then differ by as much as a real change
would.  So every operation is also timed against this loop, run right
before and right after it, and its time is rescaled to a machine on which
the loop takes exactly :data:`REFERENCE_NS`.  The loop does the same kind of
work as the library (calls, small tuples, sets, dicts, sorting, integer
bit operations) and touches none of it, so a change to the library moves
the rescaled times as it moves the wall-clock ones.
"""

from __future__ import annotations

import gc
import statistics
import time

# About the loop's time on a 2-vCPU x86-64 VM with CPython 3.11, so that
# rescaled figures there read close to wall-clock ones.
REFERENCE_NS = 850_000
REPEATS = 3
WARMUP = 5


def _mix(k):
    t = tuple((k * 7 + j) % 13 for j in range(6))
    s = frozenset(t)
    bits = 0
    for v in sorted(s):
        bits |= 1 << v
    return t, bits.bit_count()


def _loop():
    seen = {}
    total = 0
    for k in range(220):
        t, c = _mix(k)
        seen[t] = seen.get(t, 0) + c
        total += len(seen)
    return total


def probe() -> int:
    """Best of :data:`REPEATS` timings of the loop, in ns.

    The garbage collector is off meanwhile, so that a collection of the
    library's own objects is not charged to the loop.
    """
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            start = clock()
            _loop()
            elapsed = clock() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()


def warm_up():
    """The first probes of a process read up to twice the later ones."""
    for _ in range(WARMUP):
        probe()


class Pace:
    """Rescales the times measured between probes.

    :meth:`add` takes a raw time.  :meth:`settle` probes and rescales every
    time added since the previous probe by the median of the last
    :data:`WINDOW` probes: one probe alone is off by a tenth either way.
    """

    WINDOW = 5

    def __init__(self):
        warm_up()
        self.probes = [probe()]
        self.factor = REFERENCE_NS / self.probes[0]
        self.last_ns = time.perf_counter_ns()
        self.pending = []
        self.pending_ns = 0
        self.settled_ns = 0.0

    def add(self, elapsed_ns):
        self.pending.append(elapsed_ns)
        self.pending_ns += elapsed_ns

    def total_ns(self) -> float:
        """Rescaled time of all that was added; the unsettled part at the
        latest factor."""
        return self.settled_ns + self.pending_ns * self.factor

    def since_probe_ns(self):
        return time.perf_counter_ns() - self.last_ns

    def settle(self) -> list:
        self.probes = self.probes[1 - self.WINDOW:] + [probe()]
        self.factor = REFERENCE_NS / statistics.median(self.probes)
        scaled = [elapsed * self.factor for elapsed in self.pending]
        self.settled_ns += sum(scaled)
        self.pending = []
        self.pending_ns = 0
        self.last_ns = time.perf_counter_ns()
        return scaled
