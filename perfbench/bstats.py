"""Order statistics shared by the workloads and the compare command."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

#: Samples a reported percentile must have strictly above it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie above the ``pct`` percentile
    as :func:`percentile` picks it."""
    if n <= 0:
        return 0
    return n - 1 - _rank(n, pct)


def highest_percentile(n: int) -> float | None:
    """The highest :data:`PERCENTILE_LADDER` percentile with at least
    :data:`MIN_BEYOND` of the ``n`` samples beyond it, or None when not
    even the median qualifies."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def _rank(n: int, pct: float) -> int:
    # nearest-rank: the smallest sample with at least pct% of samples at
    # or below it
    # (rounded first, so 99.9% of 10000 is 9990, not 9990.000000000002)
    return min(n - 1, max(0, math.ceil(round(pct * n / 100.0, 9)) - 1))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if len(sorted_values) == 0:
        raise ValueError("percentile of no samples")
    return float(sorted_values[_rank(len(sorted_values), pct)])


def checked_percentile(sorted_values: Sequence[float], pct: float) -> float:
    """:func:`percentile`, refusing a percentile with fewer than
    :data:`MIN_BEYOND` samples beyond it."""
    beyond = samples_beyond(len(sorted_values), pct)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {len(sorted_values)} samples has only "
                         f"{beyond} beyond it (need {MIN_BEYOND})")
    return percentile(sorted_values, pct)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
