"""Host-adjusted timings: a span is scaled by the reference rate the
sampler read while it ran."""

from __future__ import annotations

import os

import pytest

from bench import host
from bench.host import NOMINAL_RATE, Samples, pinned


def test_a_span_is_scaled_by_the_rate_read_while_it_ran() -> None:
    # Fast host for t < 10, half as fast from t = 10 on.
    samples = Samples([(t / 10, NOMINAL_RATE) for t in range(100)]
                      + [(10 + t / 10, NOMINAL_RATE / 2) for t in range(100)])
    assert samples.adjusted(2.0, 6.0) == pytest.approx(4.0)
    # The same work takes twice as long in the slow spell; adjusted, it
    # reads the same.
    assert samples.adjusted(12.0, 20.0) == pytest.approx(4.0)


def test_a_short_span_borrows_the_nearest_samples() -> None:
    samples = Samples([(float(t), 10.0 if t < 50 else 30.0) for t in range(100)])
    # No sample inside [20.1, 20.2]: the ten nearest all read 10.
    assert samples.rate(20.1, 20.2) == pytest.approx(10.0)
    # At the edge of the record the window widens inwards.
    assert samples.rate(99.5, 99.6) == pytest.approx(30.0)


def test_load_skips_a_torn_last_line(tmp_path) -> None:
    path = tmp_path / "samples.txt"
    path.write_text("1.0 20.0\n2.0 10.0\n3.0")
    assert Samples.load(path).samples == [(1.0, 20.0), (2.0, 10.0)]


def test_no_samples_is_an_error() -> None:
    with pytest.raises(ValueError):
        Samples([])


def test_a_sample_is_a_positive_rate() -> None:
    assert host.reference_rate() > 0.0


def test_pinned_restores_the_affinity() -> None:
    before = os.sched_getaffinity(0)
    with pinned():
        assert os.sched_getaffinity(0) == {min(before)}
    assert os.sched_getaffinity(0) == before
