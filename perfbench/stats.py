"""Summary statistics used by the benchmark: median, tail percentile and
quartile spread."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values: Sequence[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile p that still has at least ten samples
    above it, as (p, value), by the nearest-rank rule: the value is the
    sample of rank ceil(p * n / 100). None when there are fewer than eleven
    samples, because then no such percentile exists."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)
