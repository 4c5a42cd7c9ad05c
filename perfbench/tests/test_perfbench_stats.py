import math

import pytest

from perfbench.stats import percentile, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 99.0),  # exactly ten samples beyond p99
        (999, 95.0),  # 9.99 beyond p99 is too few
        (200, 95.0),
        (199, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 50.0) == 2.5


def test_failures_count_as_infinitely_slow():
    values = [0.001] * 95 + [math.inf] * 5
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == 0.001
    assert percentile(values, 99.0) == math.inf


def test_summarize_reports_sample_count_and_no_tail_when_too_few():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary == {"n": 3, "median": 2.0, "tail_q": None, "tail": None}
