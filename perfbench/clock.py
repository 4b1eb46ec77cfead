"""Timings in seconds at a fixed host speed.

A shared host runs the same computation at speeds up to about 1.5 times
apart, and it keeps one speed for seconds to whole minutes: on two cores,
one 30-second run made 14 passes of `numeric` and another 21.  No statistic
over one run removes that, since a whole run can fall into a slow phase.  So
each timed operation is bracketed by a short calibration kernel (a harmonic
sum in stdlib Fractions, the exact rational arithmetic qwedge itself spends
its time on), and its wall time is scaled by KERNEL_REF_S over the mean of
the kernel's two times next to it.  A figure then reads as seconds on a host
where the kernel takes KERNEL_REF_S.  The kernel is the benchmark's own code,
so no change to qwedge can move it.

The speed also changes within an operation of seconds, which two kernel runs
outside it cannot see.  So `qwedge suite` runs through launch.py, which runs
the kernel after each identity inside the child; `scale_parts` scales each
identity by its own neighbours.
"""

from __future__ import annotations

import time
from fractions import Fraction

# last line of a ticked child's stderr (launch.py --ticks): the marker, then JSON
TICKS_MARK = "QWEDGE_KERNEL_TICKS "
KERNEL_TERMS = 1200
# the kernel's time on the host where the reference figures were measured
KERNEL_REF_S = 0.006


def kernel() -> float:
    """Seconds taken by the calibration kernel, now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def scale_parts(first: float, parts: list) -> float:
    """Scaled sum of consecutive parts, each given as (wall seconds, kernel
    seconds of the run just after it); `first` is the kernel run before the
    first part."""
    total, before = 0.0, first
    for seconds, after in parts:
        total += seconds * 2 * KERNEL_REF_S / (before + after)
        before = after
    return total


class Clock:
    """Scales each wall time by the kernel runs just before and just after
    it; the run after one operation is the run before the next."""

    def __init__(self):
        self.before = kernel()
        self.kernel_times = [self.before]

    def scale(self, seconds: float, ticks: dict | None = None) -> float:
        """`seconds` of wall time that have just ended.  `ticks` are the
        kernel runs a child made inside them (launch.py --ticks); the parts
        they time are scaled by their own kernel runs, and the rest of
        `seconds`, without the kernel runs, by the two outside."""
        after = kernel()
        self.kernel_times.append(after)
        inner = 0.0
        if ticks is not None:
            parts = ticks["parts"]
            inner = scale_parts(ticks["first"], parts)
            seconds -= ticks["first"] + sum(s + k for s, k in parts)
        scaled = inner + seconds * 2 * KERNEL_REF_S / (self.before + after)
        self.before = after
        return scaled
