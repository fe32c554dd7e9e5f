"""Percentiles, per-operation medians, sample-count flags and spreads.

Percentiles use the nearest-rank rule, so every reported value is a
sample that was actually observed, and a failed or refused request
(recorded as ``math.inf``) stays a miss instead of being interpolated
away.  A named percentile is *supported* when at least
``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: samples a named percentile needs beyond it to count as supported
MIN_BEYOND = 10

MISS = math.inf


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples.

    Integer arithmetic on purpose: ``0.99 * 1000`` is not exactly 990 in
    floating point, and a ceiling over it would pick the wrong sample.
    """
    if n <= 0:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, -(-q * n // 100))


def percentile(samples: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``q`` an integer percent)."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: int) -> int:
    """How many of ``n`` samples rank above the ``q``-th percentile."""
    return n - rank(n, q)


def median_per_op(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Each operation's median time over rounds that replayed the same
    operations on the same state; a miss in any round stays a miss."""
    if not rounds or len({len(times) for times in rounds}) != 1:
        raise ValueError("rounds must be non-empty and of equal length")
    return [MISS if MISS in times else statistics.median(times)
            for times in zip(*rounds)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
