"""Order statistics the harness reports (its own, so the ruler cannot move)."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile is only reported with this many samples beyond it
#: (choosing-metrics guide §1).
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q``-quantile."""
    return count - math.ceil(q * count)


def supports_tail(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q``-quantile."""
    return samples_beyond(count, q) >= TAIL_SAMPLES


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The quartiles are the ones ``statistics.quantiles(values, n=4)`` gives,
    which is what the acceptance check of the benchmark uses.  One sample
    has no spread; it reads 0.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def histogram_quantile(buckets: Sequence[tuple[float, float]], q: float) -> float:
    """Quantile of a Prometheus histogram from ``(upper bound, cumulative count)``.

    ``buckets`` ends with the ``+Inf`` bucket.  Interpolates linearly inside
    the bucket that holds the rank, like the server's own readout; a rank in
    the ``+Inf`` bucket reads the largest finite bound.  No observations
    read 0.
    """
    ordered = sorted(buckets)
    total = ordered[-1][1] if ordered else 0
    if total <= 0:
        return 0.0
    rank = q * total
    lower_bound, seen = 0.0, 0.0
    for bound, cumulative in ordered:
        if cumulative >= rank and cumulative > seen:
            if math.isinf(bound):
                return lower_bound
            return lower_bound + (bound - lower_bound) * (rank - seen) / (cumulative - seen)
        if not math.isinf(bound):
            lower_bound = bound
        seen = cumulative
    return lower_bound
