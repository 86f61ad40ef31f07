"""The benchmark's own order statistics (not ``repro.obs``'s: the ruler
must not move with the program)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = ["percentile", "median", "mean", "summary"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, rank rounded half-up, of a non-empty sample.

    ``q`` is in [0, 100].  Always returns one of the samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = math.floor(q / 100.0 * len(ordered) + 0.5)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative IQR of repeated runs of one metric.

    Quartiles are ``statistics.quantiles(values, n=4)``, the rule the
    driver applies to its own repeats.
    """
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "rel_iqr": (q3 - q1) / abs(med) if med else 0.0,
    }
