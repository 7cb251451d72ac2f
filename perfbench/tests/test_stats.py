"""The percentile rule: quote only what ten samples lie beyond."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (104, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_highest_supported_percentile(n, expected):
    assert stats.highest_supported(n) == expected


def test_percentile_interpolates_between_closest_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile(values, 100) == 50.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    import statistics

    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.spread([5.0]) == 0.0
