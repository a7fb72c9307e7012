"""Exact-arithmetic tests of the reporting rules (no wall clock)."""

import math

import pytest

from bench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 25) == pytest.approx(1.75)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("count, expected", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_supported_tail_leaves_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_summarize_states_the_sample_count():
    summary = stats.summarize([float(i) for i in range(1, 201)])
    assert summary["n"] == 200
    assert summary["p50"] == 100.5
    assert summary["tail_q"] == 95.0
    assert summary["tail"] == pytest.approx(190.05)
    assert stats.summarize([1.0, 2.0])["tail"] is None


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert stats.spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.spread([60.0] * 10) == 0.0
    assert stats.spread([0.0] * 10) == 0.0
    assert stats.spread([0.0] * 6 + [5.0] * 4) == math.inf


def test_paired_ratio_uses_same_round_pairs():
    base = [10.0, 20.0, 30.0, 40.0]
    other = [5.0, 20.0, 60.0, 10.0]          # ratios 2, 1, 0.5, 4
    ratio = stats.paired_ratio(base, other)
    assert ratio["n"] == 4
    assert ratio["median"] == 1.5
    # not the ratio of the medians (25 / 15)
    assert ratio["median"] != pytest.approx(25.0 / 15.0)
    with pytest.raises(ValueError):
        stats.paired_ratio([1.0], [1.0, 2.0])


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 9.0, "lower") == pytest.approx(-0.1)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)
    assert stats.worsening(0.0, 0.0, "higher") == 0.0
    with pytest.raises(ValueError):
        stats.worsening(1.0, 1.0, "sideways")


def _runs(center, step=0.001):
    return [center * (1 + step * k) for k in range(-5, 5)]


def test_verdict_within_bound_worse_and_unresolved():
    first = _runs(10.0)
    assert stats.verdict(first, _runs(10.5), "lower", 0.10)["verdict"] == "within bound"
    assert stats.verdict(first, _runs(11.5), "lower", 0.10)["verdict"] == "worse"
    assert stats.verdict(first, _runs(8.0), "lower", 0.10)["verdict"] == "within bound"
    assert stats.verdict(first, _runs(8.0), "higher", 0.10)["verdict"] == "worse"
    noisy = [8.0, 8.0, 8.0, 10.0, 10.0, 10.0, 12.0, 12.0, 12.0, 12.0]
    row = stats.verdict(first, noisy, "lower", 0.10)
    assert row["verdict"] == "unresolved"
    assert row["spread"] > 0.10


def test_verdict_on_a_step_metric():
    """A ladder metric repeats exactly; one rung down is worse, not noise."""
    same = stats.verdict([1000.0] * 10, [1000.0] * 10, "higher", 0.25)
    assert same["verdict"] == "within bound" and same["spread"] == 0.0
    down = stats.verdict([1000.0] * 10, [500.0] * 10, "higher", 0.25)
    assert down["verdict"] == "worse" and down["worse_by"] == pytest.approx(0.5)


def test_blocked_percentile_is_the_typical_blocks_tail():
    calm = [float(i % 100) for i in range(200)]            # p95 of a calm block: 94.05
    stalled = calm[:160] + [1000.0] * 40                   # one block hit by a stall
    values = calm + stalled + calm
    assert stats.percentile(values, 95.0) > 100.0          # the stall sets the run's p95
    assert stats.blocked_percentile(values, 95.0) == pytest.approx(94.05)
    # a trailing partial block is dropped; a lone partial block is used whole
    assert stats.blocked_percentile(calm + [1000.0] * 50, 95.0) == pytest.approx(94.05)
    assert stats.blocked_percentile([1.0, 2.0, 3.0], 50.0) == 2.0
