"""Percentiles where a failed request is infinitely slow."""

from __future__ import annotations

import math

from repro.stats.latency import percentile as repro_percentile

from bench.stats import percentile, quartile_spread


def test_without_failures_matches_the_library_estimator() -> None:
    samples = [0.5 * i for i in range(1, 1001)]
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(samples, q) == repro_percentile(sorted(samples), q)


def test_failures_sort_after_every_success() -> None:
    samples = [float(i) for i in range(1, 991)]  # 990 successes
    assert math.isinf(percentile(samples, 99.0, failed=10))
    # p50 moves up by the ten slots the failures take at the top.
    assert percentile(samples, 50.0, failed=10) == percentile(samples + [1e9] * 10, 50.0)


def test_one_failure_in_a_thousand_does_not_hide_below_p99() -> None:
    samples = [1.0] * 999
    assert percentile(samples, 99.0, failed=1) == 1.0
    assert math.isinf(percentile(samples, 99.95, failed=1))


def test_all_failed_is_infinitely_slow() -> None:
    assert math.isinf(percentile([], 50.0, failed=3))


def test_quartile_spread() -> None:
    assert quartile_spread([10.0] * 10) == 0.0
    # statistics.quantiles: q1 = 2.75, q3 = 8.25, median 5.5
    assert quartile_spread([float(v) for v in range(1, 11)]) == 1.0
