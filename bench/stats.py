"""Small statistics used by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no samples attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
