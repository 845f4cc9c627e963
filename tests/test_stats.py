"""Unit tests for counters, balance analysis and summaries."""

import pytest

from repro.stats.balance import analyze_balance
from repro.stats.counters import CacheStats
from repro.stats.summary import (
    average_reduction,
    geometric_mean,
    improvement,
    miss_rate_reduction,
)


class TestCacheStats:
    def test_record(self):
        stats = CacheStats(num_sets=4)
        stats.record(0, hit=True, is_write=False)
        stats.record(1, hit=False, is_write=True)
        assert stats.accesses == 2
        assert stats.hits == 1 and stats.misses == 1
        assert stats.reads == 1 and stats.writes == 1
        assert stats.set_hits[0] == 1 and stats.set_misses[1] == 1

    def test_rates_on_empty(self):
        stats = CacheStats(num_sets=1)
        assert stats.miss_rate == 0.0
        assert stats.hit_rate == 0.0
        assert stats.pd_hit_rate_during_miss == 0.0

    def test_reset(self):
        stats = CacheStats(num_sets=2)
        stats.record(0, hit=False, is_write=False)
        stats.reset()
        assert stats.accesses == 0
        assert stats.num_sets == 2
        assert stats.set_accesses == [0, 0]

    def test_merge(self):
        a = CacheStats(num_sets=2)
        b = CacheStats(num_sets=2)
        a.record(0, hit=True, is_write=False)
        b.record(1, hit=False, is_write=True)
        b.evictions = 1
        a.merge(b)
        assert a.accesses == 2
        assert a.set_accesses == [1, 1]
        assert a.evictions == 1

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            CacheStats(num_sets=2).merge(CacheStats(num_sets=4))

    def test_pd_hit_rate(self):
        stats = CacheStats(num_sets=1)
        stats.record(0, hit=False, is_write=False)
        stats.record(0, hit=False, is_write=False)
        stats.pd_hit_misses = 1
        stats.pd_miss_misses = 1
        assert stats.pd_hit_rate_during_miss == 0.5


class TestBalance:
    def _stats(self, accesses, hits, misses):
        stats = CacheStats(num_sets=len(accesses))
        stats.set_accesses = list(accesses)
        stats.set_hits = list(hits)
        stats.set_misses = list(misses)
        stats.accesses = sum(accesses)
        stats.hits = sum(hits)
        stats.misses = sum(misses)
        return stats

    def test_uniform_usage_has_no_hot_or_cold_sets(self):
        stats = self._stats([10] * 8, [8] * 8, [2] * 8)
        report = analyze_balance(stats)
        assert report.frequent_hit_sets == 0.0
        assert report.frequent_miss_sets == 0.0
        assert report.less_accessed_sets == 0.0

    def test_concentrated_hits_detected(self):
        # One set has 9x the average hits.
        stats = self._stats([100, 10, 10, 10], [90, 5, 5, 5], [0, 0, 0, 0])
        report = analyze_balance(stats)
        assert report.frequent_hit_sets == pytest.approx(0.25)
        assert report.frequent_hit_share == pytest.approx(90 / 105)

    def test_concentrated_misses_detected(self):
        stats = self._stats([50, 10, 10, 10], [0, 8, 8, 8], [50, 2, 2, 2])
        report = analyze_balance(stats)
        assert report.frequent_miss_sets == pytest.approx(0.25)
        assert report.frequent_miss_share > 0.8

    def test_cold_sets_detected(self):
        stats = self._stats([100, 100, 100, 1], [90] * 3 + [1], [10] * 3 + [0])
        report = analyze_balance(stats)
        assert report.less_accessed_sets == pytest.approx(0.25)

    def test_no_misses_is_safe(self):
        stats = self._stats([10, 10], [10, 10], [0, 0])
        report = analyze_balance(stats)
        assert report.frequent_miss_share == 0.0

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            analyze_balance(CacheStats(num_sets=0))

    def test_percent_row_order(self):
        stats = self._stats([10] * 4, [8] * 4, [2] * 4)
        row = analyze_balance(stats).as_percent_row()
        assert len(row) == 6
        assert all(value == 0.0 for value in row)


class TestSummary:
    def test_miss_rate_reduction(self):
        assert miss_rate_reduction(0.10, 0.04) == pytest.approx(0.6)

    def test_reduction_of_zero_baseline(self):
        assert miss_rate_reduction(0.0, 0.1) == 0.0

    def test_negative_reduction_when_worse(self):
        assert miss_rate_reduction(0.10, 0.20) == pytest.approx(-1.0)

    def test_improvement(self):
        assert improvement(2.0, 2.2) == pytest.approx(0.1)
        assert improvement(0.0, 1.0) == 0.0

    def test_average_reduction(self):
        assert average_reduction([0.2, 0.4]) == pytest.approx(0.3)
        assert average_reduction([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class TestSnapshotInputs:
    """``from_snapshot`` converts per-set counters exactly as
    ``[int(v) for v in values]`` does: the same inputs accepted, with
    the same values and types, and the same ones rejected."""

    @staticmethod
    def snapshot(per_set):
        state = CacheStats(num_sets=3).snapshot()
        state["set_accesses"] = per_set
        return state

    @staticmethod
    def outcome(convert, per_set):
        try:
            values = convert(per_set)
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            return type(exc)
        return [(type(v), v) for v in values]

    @pytest.mark.parametrize("per_set", [
        [1, 2, 3],
        [0, -4, 1 << 70],
        [True, False, 1],
        [1.0, 2.5, -0.5],
        [float("nan"), 1, 2],
        [float("inf"), 1, 2],
        ["1", " 2 ", "3"],
        ["1", "x", "3"],
        ["1.5", 2, 3],
        [None, 1, 2],
        [[1], 2, 3],
        (4, 5, 6),
        "123",
        b"\x01\x02\x03",
        range(3),
        None,
        7,
    ])
    def test_matches_int_conversion(self, per_set):
        def legacy(values):
            return [int(v) for v in values]

        def current(values):
            return CacheStats.from_snapshot(self.snapshot(values)).set_accesses

        expected = self.outcome(legacy, per_set)
        if expected in (TypeError, KeyError):
            expected = ValueError  # reported as a malformed snapshot
        assert self.outcome(current, per_set) == expected

    @pytest.mark.parametrize("per_set", [[1, 2], [1, 2, 3, 4]])
    def test_wrong_length_rejected(self, per_set):
        with pytest.raises(ValueError, match="per-set counter length"):
            CacheStats.from_snapshot(self.snapshot(per_set))

    def test_empty_set_accesses_rejected(self):
        # An empty list must not be zero-filled over the other counters.
        state = CacheStats(num_sets=4).snapshot()
        state["set_accesses"] = []
        state["set_hits"] = [9, 9, 9, 9]
        with pytest.raises(ValueError, match="per-set counter length 0"):
            CacheStats.from_snapshot(state)
        assert CacheStats(num_sets=4).set_hits == [0, 0, 0, 0]

    @pytest.mark.parametrize("key", ["set_hits", "slow_hits", "num_sets"])
    def test_missing_key_rejected(self, key):
        state = CacheStats(num_sets=3).snapshot()
        del state[key]
        with pytest.raises(ValueError, match="malformed stats snapshot"):
            CacheStats.from_snapshot(state)

    def test_result_does_not_alias_the_snapshot(self):
        state = self.snapshot([1, 2, 3])
        stats = CacheStats.from_snapshot(state)
        stats.set_accesses[0] += 1
        assert state["set_accesses"] == [1, 2, 3]
