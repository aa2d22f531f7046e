"""Percentiles from raw samples.

No bucketing and no interpolation between buckets: a percentile is a
linear interpolation between the two order statistics around its rank
(the "inclusive" method of :func:`statistics.quantiles`).
"""

from __future__ import annotations

import math
import statistics

#: Samples that should lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of raw samples."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def summarize(samples: list[float], tail_pct: float) -> dict:
    """Median and the fixed ``tail_pct`` percentile of raw samples,
    with how many samples lie beyond that percentile's rank."""
    return {
        "n": len(samples),
        "p50": statistics.median(samples),
        "tail_pct": tail_pct,
        "tail": percentile(samples, tail_pct),
        "beyond": beyond(len(samples), tail_pct),
    }


def beyond(n: int, p: float) -> int:
    """Samples of ``n`` that lie strictly above the ``p``-th
    percentile's rank."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
