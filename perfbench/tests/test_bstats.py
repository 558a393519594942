import pytest

from bstats import (checked_percentile, highest_percentile, percentile,
                    samples_beyond, spread)


@pytest.mark.parametrize("n, want", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10_000, 99.9), (400_000, 99.99),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, want):
    assert highest_percentile(n) == want
    if want is not None:
        assert samples_beyond(n, want) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100


def test_checked_percentile_refuses_thin_tails():
    values = sorted(float(i) for i in range(999))
    assert checked_percentile(values, 90.0) == 899.0
    with pytest.raises(ValueError, match="only 9 beyond"):
        checked_percentile(values, 99.0)


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(
        (11.5 - 8.5) / 10.0)
