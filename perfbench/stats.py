"""Summary statistics the benchmark reports for timing samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentiles above the median that a timing may be reported at.
PERCENTILES = (90.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(count: int) -> float | None:
    """Highest percentile in :data:`PERCENTILES` with enough samples beyond it.

    With ``count`` samples, ``count * (100 - p) / 100`` of them lie beyond
    percentile ``p``; ``None`` when even p90 has too few.
    """
    best = None
    for p in PERCENTILES:
        # Compare in integer per-mille units so 99.9 is not rounded away.
        if count * round(1000 - 10 * p) >= MIN_TAIL_SAMPLES * 1000:
            best = p
    return best


def nearest_rank(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by the nearest-rank rule."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing_summary(samples: Sequence[float]) -> dict:
    """Median, sample count, and the highest percentile the count supports."""
    p = tail_percentile(len(samples))
    return {
        "count": len(samples),
        "p50": statistics.median(samples),
        "tail_p": p,
        "tail_value": None if p is None else nearest_rank(samples, p),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
