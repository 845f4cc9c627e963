"""Tests for the write-policy wrapper and the sensitivity sweeps."""

import pytest

from repro.caches import make_cache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.write_policy import WritePolicyCache
from repro.experiments.common import ExperimentScale
from repro.experiments.sensitivity import cache_size_sweep, line_size_sweep

TINY = ExperimentScale(data_n=6_000, instr_n=6_000, instructions=3_000)


class TestWriteThrough:
    def test_writes_propagate_immediately(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        cache.access(0x40, is_write=True)
        cache.access(0x40, is_write=True)
        assert cache.writethroughs == 2

    def test_lines_never_dirty(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        cache.access(0x40, is_write=True)
        result = cache.access(0x40 + 512)  # evicts the written line
        assert result.evicted is not None and not result.evicted_dirty
        assert cache.inner.stats.writebacks == 0

    def test_write_traffic_accounts_everything(self):
        wb = WritePolicyCache(DirectMappedCache(512, 32), write_through=False)
        wt = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        for cache in (wb, wt):
            cache.access(0x40, is_write=True)
            cache.access(0x40 + 512)
        assert wb.write_traffic == 1  # one writeback at eviction
        assert wt.write_traffic == 1  # one write-through at the store

    def test_reads_unaffected(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        cache.access(0x40)
        assert cache.access(0x40).hit
        assert cache.writethroughs == 0


class TestWriteNoAllocate:
    def test_write_miss_does_not_fill(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_allocate=False)
        cache.access(0x40, is_write=True)
        assert not cache.contains(0x40)
        assert cache.writethroughs == 1

    def test_write_hit_still_updates(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_allocate=False)
        cache.access(0x40)  # read allocates
        result = cache.access(0x40, is_write=True)
        assert result.hit

    def test_read_miss_allocates(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_allocate=False)
        cache.access(0x40)
        assert cache.contains(0x40)

    def test_stats_count_bypassed_writes_as_misses(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_allocate=False)
        cache.access(0x40, is_write=True)
        assert cache.stats.misses == 1

    def test_combined_wt_wna(self):
        cache = WritePolicyCache(
            DirectMappedCache(512, 32), write_allocate=False, write_through=True
        )
        cache.access(0x40, is_write=True)   # bypass
        cache.access(0x40)                   # read fill
        cache.access(0x40, is_write=True)   # write-through hit
        assert cache.writethroughs == 2
        assert cache.write_traffic == 2


class TestWrapperPlumbing:
    def test_wraps_any_organisation(self):
        cache = WritePolicyCache(make_cache("mf8_bas8"), write_through=True)
        for i in range(100):
            cache.access(i * 64, is_write=(i % 3 == 0))
        assert cache.stats.accesses == 100

    def test_flush(self):
        cache = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        cache.access(0x40, is_write=True)
        cache.flush()
        assert cache.writethroughs == 0
        assert not cache.contains(0x40)

    def test_name_encodes_policy(self):
        wt = WritePolicyCache(DirectMappedCache(512, 32), write_through=True)
        wna = WritePolicyCache(DirectMappedCache(512, 32), write_allocate=False)
        assert "WT" in wt.name
        assert "WNA" in wna.name


class TestSensitivitySweeps:
    def test_line_size_sweep(self):
        result = line_size_sweep(benchmarks=("equake", "gzip")).run(TINY)
        assert [p.label for p in result.points] == ["16B", "32B", "64B"]
        # The B-Cache's advantage holds at every line size.
        for point in result.points:
            assert point.reductions["mf8_bas8"] > 0.1
        assert "line size" in result.render()

    def test_cache_size_sweep(self):
        result = cache_size_sweep(
            sizes=(8, 16, 32), benchmarks=("equake", "gzip")
        ).run(TINY)
        # Baseline miss rate falls with capacity.
        rates = [p.baseline_miss_rate for p in result.points]
        assert rates == sorted(rates, reverse=True)
        # B-Cache reduction positive at all capacities.
        assert all(r > 0.1 for r in result.reduction_series("mf8_bas8"))

    def test_series_accessor(self):
        result = line_size_sweep(line_sizes=(32,), benchmarks=("gzip",)).run(TINY)
        series = result.reduction_series("8way")
        assert len(series) == 1
