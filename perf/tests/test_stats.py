import math
import statistics

import pytest

from perf.stats import (
    histogram_quantile,
    percentile,
    relative_spread,
    samples_beyond,
    supports_tail,
)


def test_percentile_interpolates_between_order_statistics():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 0.5) == 30.0
    assert percentile(values, 1.0) == 50.0
    assert percentile(values, 0.9) == pytest.approx(46.0)
    assert percentile(list(reversed(values)), 0.25) == 20.0


def test_percentile_refuses_nonsense():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_ten_samples_beyond_rule():
    # 200 samples leave exactly ten beyond their p95, 199 leave nine.
    assert samples_beyond(200, 0.95) == 10
    assert supports_tail(200, 0.95)
    assert samples_beyond(199, 0.95) == 9
    assert not supports_tail(199, 0.95)
    assert supports_tail(20, 0.5)
    assert not supports_tail(19, 0.5)


def test_relative_spread_matches_the_acceptance_formula():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 9.5, 10.2, 10.8, 11.5, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert relative_spread([5.0]) == 0.0
    assert relative_spread([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(relative_spread([-1.0, 0.0, 1.0]))


def test_histogram_quantile_interpolates_inside_the_bucket():
    buckets = [(0.01, 0.0), (0.025, 10.0), (0.05, 30.0), (math.inf, 40.0)]
    # rank 20 of 40 sits halfway through the (0.025, 0.05] bucket
    assert histogram_quantile(buckets, 0.5) == pytest.approx(0.0375)
    # a rank in +Inf reads the largest finite bound
    assert histogram_quantile(buckets, 0.99) == pytest.approx(0.05)
    assert histogram_quantile([(0.01, 0.0), (math.inf, 0.0)], 0.5) == 0.0
