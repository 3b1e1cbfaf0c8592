"""A fixed pure-Python reference loop that gauges the machine's speed.

The speed of a shared machine drifts: the same fixed work can take 1.8
times as long for tens of seconds at a time, longer than a run lasts. The
benchmark runs this loop next to the library's work, after every
instance and inside every set-up probe, and scales the times it gates to
NOMINAL_S, the loop's time on a nominal machine. A drift slows the loop
and the library alike, so the scaled times keep the library's cost and
lose most of the drift.

The loop is plain interpreter work of kinds the library does: int
arithmetic, dict stores and Fractions. Of three loops tried, it tracked
the drift best: over five minutes of fixed work, the spread of 30-second
medians fell from 0.25 to 0.03 on oracle-scan rounds and from 0.29 to
0.01 on certify-small rounds once scaled. It never imports the library,
so no change to the library can move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The loop's time on a nominal machine.  On the 2-core machine (Python
# 3.11.7) where the bounds were set it took 4.8 ms when that machine ran
# fast and 7.5 ms at the median.
NOMINAL_S = 0.005


def _work() -> int:
    x = 0
    table = {}
    frac = Fraction(1, 3)
    for i in range(20000):
        x = (x * 31 + i) % 1000003
        table[i & 255] = x
        if i % 50 == 0:
            frac = frac * Fraction(i + 1, 7) + Fraction(1, 3)
    return x ^ len(table) ^ frac.denominator.bit_length()


def reference_s() -> float:
    """Seconds of one pass of the reference loop."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(seconds: float, references: list[float]) -> float:
    """`seconds` measured while the loop took `references` seconds,
    scaled to a machine on which the loop takes NOMINAL_S."""
    return seconds * NOMINAL_S / statistics.median(references)
