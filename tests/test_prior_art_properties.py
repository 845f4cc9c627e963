"""Property-based tests for the prior-art cache models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.column_associative import ColumnAssociativeCache
from repro.caches.group_associative import GroupAssociativeCache
from repro.caches.page_coloring import PageColoringCache
from repro.caches.skewed_associative import SkewedAssociativeCache
from repro.caches.way_predicting import PredictiveSequentialCache
from repro.caches.write_policy import WritePolicyCache
from repro.caches.direct_mapped import DirectMappedCache

addresses = st.lists(
    st.integers(min_value=0, max_value=(1 << 18) - 1), min_size=1, max_size=250
)
writes = st.lists(st.booleans(), min_size=250, max_size=250)


def _no_duplicate_blocks(frames: list[int]) -> bool:
    valid = [b for b in frames if b >= 0]
    return len(valid) == len(set(valid))


class TestGroupAssociativeProperties:
    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_no_block_in_two_frames(self, addrs):
        cache = GroupAssociativeCache(2 * 1024, 32)
        for address in addrs:
            cache.access(address)
        assert _no_duplicate_blocks(cache._blocks)

    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_opd_points_at_real_blocks_or_is_stale_safe(self, addrs):
        cache = GroupAssociativeCache(2 * 1024, 32)
        for address in addrs:
            cache.access(address)
            # Probing immediately after an access must hit.
            assert cache.contains(address)

    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_stats_consistent(self, addrs):
        cache = GroupAssociativeCache(2 * 1024, 32)
        for address in addrs:
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.slow_hits <= stats.hits
        assert stats.slow_hit_cycles == 2 * stats.slow_hits


class TestPageColoringProperties:
    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_no_aliasing_after_recolors(self, addrs):
        cache = PageColoringCache(2 * 1024, 32, page_size=512, threshold=4,
                                  cooldown=8)
        for address in addrs:
            cache.access(address)
            assert cache.contains(address)
        assert _no_duplicate_blocks(cache._blocks)

    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_index_always_in_range(self, addrs):
        cache = PageColoringCache(2 * 1024, 32, page_size=512, threshold=4)
        for address in addrs:
            result = cache.access(address)
            assert 0 <= result.set_index < cache.num_sets


class TestSkewedProperties:
    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_access_then_probe(self, addrs):
        cache = SkewedAssociativeCache(2 * 1024, 32, ways=2)
        for address in addrs:
            cache.access(address)
            assert cache.contains(address)

    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_no_duplicate_blocks_across_ways(self, addrs):
        cache = SkewedAssociativeCache(2 * 1024, 32, ways=2)
        for address in addrs:
            cache.access(address)
        all_blocks = [b for b in cache._blocks if b >= 0]
        assert len(all_blocks) == len(set(all_blocks))


class TestColumnAssociativeProperties:
    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_access_then_probe(self, addrs):
        cache = ColumnAssociativeCache(2 * 1024, 32)
        for address in addrs:
            cache.access(address)
            assert cache.contains(address)

    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_rehash_bits_only_on_occupied_frames(self, addrs):
        cache = ColumnAssociativeCache(2 * 1024, 32)
        for address in addrs:
            cache.access(address)
        for index in range(cache.num_sets):
            if cache._rehash[index]:
                assert cache._blocks[index] >= 0


class TestWayPredictionProperties:
    @given(addresses)
    @settings(max_examples=30, deadline=None)
    def test_latency_counters_partition_hits(self, addrs):
        cache = PredictiveSequentialCache(2 * 1024, 32, ways=2)
        for address in addrs:
            cache.access(address)
        stats = cache.stats
        assert stats.slow_hits <= stats.hits
        # A 2-way set has one way to try after the predicted one.
        assert stats.slow_hit_cycles == stats.slow_hits


class TestWritePolicyProperties:
    @given(addresses, writes)
    @settings(max_examples=30, deadline=None)
    def test_write_through_never_dirty(self, addrs, is_write):
        cache = WritePolicyCache(
            DirectMappedCache(1024, 32), write_through=True
        )
        for address, w in zip(addrs, is_write):
            cache.access(address, w)
        assert cache.inner.stats.writebacks == 0

    @given(addresses, writes)
    @settings(max_examples=30, deadline=None)
    def test_no_allocate_never_fills_on_write_miss(self, addrs, is_write):
        cache = WritePolicyCache(
            DirectMappedCache(1024, 32), write_allocate=False
        )
        resident_reads: set[int] = set()
        for address, w in zip(addrs, is_write):
            before = cache.contains(address)
            cache.access(address, w)
            if w and not before:
                # A write miss must not have allocated.
                assert not cache.contains(address)
