"""Order statistics: percentiles with failures, medians, quartile spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from repro.stats.latency import rank_position


def percentile(samples: Sequence[float], q: float, failed: int = 0) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` plus ``failed``
    infinitely slow ones.

    A failed or refused request has no latency, but leaving it out
    would make a system that drops its slowest requests look faster,
    so it counts as slower than every success.  Linear interpolation
    between closest ranks, as :func:`repro.stats.latency.percentile`.
    """
    ordered = sorted(samples) + [math.inf] * failed
    lower, upper, weight = rank_position(len(ordered), q)
    low, high = ordered[lower], ordered[upper]
    if weight == 0.0 or low == high:
        return low
    if math.isinf(high):
        return math.inf
    return low + (high - low) * weight


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
