"""Summary statistics for pass timings."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), p) - 1])


def _rank(n: int, p: float) -> int:
    # round() first so that, say, 90% of 100 is rank 90, not 91
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def tail_percentile(values, min_beyond: int = 10):
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(p, value)``, or ``None`` when there are too few samples for
    even the median to have that many beyond it.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(n, p) >= min_beyond:
            return p, percentile(values, p)
    return None
