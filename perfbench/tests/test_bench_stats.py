import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_no_tail_percentile_without_ten_samples_beyond():
    assert stats.tail_percentile([float(i) for i in range(10)]) is None


def test_tail_percentile_leaves_ten_samples_above():
    values = [float(i) for i in range(1, 61)]  # 1..60
    p, value = stats.tail_percentile(values)
    assert p == 83  # floor(100 * 50 / 60)
    assert value == 50.0  # rank ceil(0.83 * 60) = 50
    assert sum(v > value for v in values) == 10
    # order of the samples does not matter
    assert stats.tail_percentile(values[::-1]) == (p, value)


def test_tail_percentile_at_eleven_samples_is_the_minimum():
    values = [float(i) for i in range(11)]
    p, value = stats.tail_percentile(values)
    assert (p, value) == (9, 0.0)


@pytest.mark.parametrize("n", [100, 101, 1000])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    p, value = stats.tail_percentile(values)
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    rank_next = -(-(p + 1) * n // 100)
    assert n - rank_next < 10


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 4.0)
    assert stats.quartile_spread([5.0] * 10) == 0.0
    with pytest.raises(ValueError):
        stats.quartile_spread([1.0])
