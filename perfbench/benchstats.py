"""Order statistics the benchmark reports: medians and the tail percentile.

The tail rule: report the highest whole percentile that still has at least
TAIL_BEYOND samples strictly beyond it, so a tail figure is never one
outlier. Percentiles use the nearest-rank definition.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile p whose nearest-rank value leaves at least
    `beyond` of n samples above it. Needs n > beyond."""
    if n <= beyond:
        raise ValueError(f"tail percentile needs more than {beyond} samples, got {n}")
    p = 100 * (n - beyond) // n
    while n - _rank(n, p) < beyond:  # guards float rounding in the rank
        p -= 1
    return p


def _rank(n: int, p: int) -> int:
    return max(1, math.ceil(p * n / 100))


def percentile(values, p: int) -> float:
    """Nearest-rank p-th percentile (p in [0, 100]); p=0 gives the minimum."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(values, p: int) -> int:
    """How many samples lie strictly above the nearest-rank rank of p."""
    return len(values) - _rank(len(values), p)


def median(values) -> float:
    return statistics.median(values)

