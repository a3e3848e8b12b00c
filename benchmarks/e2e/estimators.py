"""Reduce samples to epoch values and epoch values to run values.

Interference on a shared host only ever slows an epoch down, so a run
reports the *good* quartile across its epochs: the upper quartile of a
rate, the lower quartile of a time (README "Estimators").
"""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); NaN if empty."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """Python's exclusive quartiles, kept inside the data (with two or
    three values the exclusive method extrapolates); a single value is
    its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return max(q1, min(values)), q2, min(q3, max(values))


def best_rate(per_epoch: Sequence[float]) -> float:
    return quartiles(per_epoch)[2]


def best_time(per_epoch: Sequence[float]) -> float:
    return quartiles(per_epoch)[0]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure for one metric over repeated runs."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
