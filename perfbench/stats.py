"""Summary statistics the benchmark reports.

Every timing is summarised by its median and by the highest percentile
that still has at least ten samples beyond it, together with the
sample count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Infinite values are allowed: a failed request counts as an
    infinitely slow one, so it can only push a percentile up.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high or ordered[low] == ordered[high]:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``TAIL_LADDER`` with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def summarize(values) -> dict:
    """Median, tail percentile (by the rule above) and sample count."""
    values = list(values)
    summary = {"n": len(values), "median": median(values) if values else None}
    q = tail_percentile(len(values))
    summary["tail_q"] = q
    summary["tail"] = percentile(values, q) if q is not None else None
    return summary
