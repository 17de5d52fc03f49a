import pytest

from stats import REFERENCE_PROBE_S, HostSpeed, percentile, tail, tail_percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),   # the median of 19 has 9 samples above it
        (20, 50.0),   # ... of 20 has 10
        (39, 50.0),   # p75 of 39 is rank 30: 9 above
        (40, 75.0),
        (99, 75.0),   # p90 of 99 is rank 90: 9 above
        (100, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_reports_value_percentile_and_count_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail(values) == (90.0, 90.0, 10)


def test_tail_of_few_samples_is_the_maximum():
    assert tail([1.0, 5.0, 2.0]) == (5.0, None, 0)


def test_slowdown_is_the_median_probe_over_the_reference():
    # One probe caught in a stall does not move the median.
    host = HostSpeed([REFERENCE_PROBE_S * f for f in (1.5, 1.2, 9.0, 1.1, 1.2)])
    assert host.slowdown == pytest.approx(1.2)


def test_a_probe_takes_time():
    host = HostSpeed()
    host.sample(2)
    assert len(host.samples) == 2 and host.slowdown > 0
