"""Order statistics used by every metric: medians, percentiles, spreads."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: percentiles a latency report may quote, lowest first
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

#: samples that must lie beyond a percentile before it is quoted
BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def highest_supported(n: int, beyond: int = BEYOND) -> float | None:
    """The highest :data:`LADDER` percentile with at least *beyond* of
    *n* samples above it, or ``None`` when not even the median has."""
    supported = [p for p in LADDER if n * (100.0 - p) / 100.0 >= beyond]
    return supported[-1] if supported else None


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 when fewer than two values, or a zero median)."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
