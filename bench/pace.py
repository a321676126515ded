"""Times in reference seconds: wall time scaled by the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a third within a minute (a fixed loop timed 0.185-0.261 s in one minute,
CPU time tracking wall time), so raw wall times of runs minutes apart spread
wider than any useful bound.  A probe -- a fixed piece of pure-Python work
that uses the standard library only, never the program -- is timed between
operations.  An operation's reference time is its wall time times
PROBE_REF_S over the mean of the probes just before and just after it: the
time it would take on a machine that runs the probe in exactly PROBE_REF_S.
A change to the program moves its reference times as it moves wall times;
a change in the host's speed moves the probe with it and cancels out.

Probes run outside every timed interval.  Raw wall times are reported in
each run's record line beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_REF_S = 0.005             # reference seconds one probe takes, by definition
MODULUS = 1000003


def _probe_work():
    """Fraction, modular-integer, list and dict work, as the program does."""
    acc = Fraction(0)
    counts = {}
    rows = [[Fraction(i * 7 + j, j + 1) for j in range(8)] for i in range(8)]
    ints = list(range(1, 65))
    for k in range(60):
        row = rows[k % 8]
        acc += row[k % 8] * row[(k + 3) % 8] - Fraction(k, 3)
        counts[k % 17] = counts.get(k % 17, 0) + k * k % 11
        rows[k % 8] = [x + acc / (k + 1) if x else x for x in row]
        acc = Fraction(acc.numerator % MODULUS, acc.denominator % 1000 + 1)
        pivot = pow(ints[k], MODULUS - 2, MODULUS)
        ints = [(x * pivot + k) % MODULUS for x in ints]
    return acc, ints[0]


def probe():
    """Wall seconds of one probe now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class Clock:
    """Times operations and scales each to reference seconds.

    `time(fn)` runs fn, then a probe, and returns (result, wall seconds,
    reference seconds).  Every probe taken is kept in `probes`.
    """

    def __init__(self):
        self.probes = [probe()]

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        before = self.probes[-1]
        self.probes.append(probe())
        return result, wall, wall * self.scale(before, self.probes[-1])

    @staticmethod
    def scale(*probes):
        return PROBE_REF_S / statistics.fmean(probes)

    def median_scale(self):
        return self.scale(statistics.median(self.probes))
