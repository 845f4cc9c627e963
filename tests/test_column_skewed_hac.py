"""Unit tests for the prior-art organisations: column-associative,
skewed-associative and highly associative (HAC) caches."""

import random

import pytest

from repro.caches.column_associative import ColumnAssociativeCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.hac import HighlyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.skewed_associative import SkewedAssociativeCache


class TestColumnAssociative:
    def test_conflicting_pair_coexists(self):
        cache = ColumnAssociativeCache(512, 32)
        cache.access(0x0)
        cache.access(0x200)  # rehashes into the flipped-MSB set
        assert cache.access(0x0).hit
        assert cache.access(0x200).hit

    def test_second_probe_hit_swaps(self):
        cache = ColumnAssociativeCache(512, 32)
        cache.access(0x0)
        cache.access(0x200)  # 0x0 pushed to secondary slot? no: 0x200 misses both, settles primary
        cache.access(0x0)
        before = cache.stats.slow_hits
        assert cache.access(0x0).extra_cycles == 0  # after swap, first-probe hit
        assert cache.stats.slow_hits == before
        assert cache.stats.hits > cache.stats.slow_hits

    def test_slow_hit_fraction_tracks_second_probes(self):
        cache = ColumnAssociativeCache(512, 32)
        for address in (0x0, 0x200, 0x0, 0x200):
            cache.access(address)
        stats = cache.stats
        assert 0 < stats.slow_hits <= stats.hits
        assert stats.slow_hit_cycles == stats.slow_hits  # one extra probe each

    def test_beats_direct_mapped_on_pairs(self):
        rng = random.Random(3)
        addresses = [rng.choice((0x0, 0x4000)) + 0x40 for _ in range(500)]
        ca = ColumnAssociativeCache(16 * 1024, 32)
        dm = DirectMappedCache(16 * 1024, 32)
        for address in addresses:
            ca.access(address)
            dm.access(address)
        assert ca.miss_rate < dm.miss_rate / 4

    def test_rehash_slot_replaced_directly(self):
        cache = ColumnAssociativeCache(512, 32)
        cache.access(0x0)
        cache.access(0x200)   # 0x0 stays primary; 0x200 primary=0, rehash 0x0? -> check misses
        # The detailed path: just assert the cache never double-counts.
        assert cache.stats.misses == 2

    def test_probe_and_flush(self):
        cache = ColumnAssociativeCache(512, 32)
        cache.access(0xAA0)
        assert cache.contains(0xAA0)
        cache.flush()
        assert not cache.contains(0xAA0)
        assert cache.stats.hits == cache.stats.slow_hits == 0


class TestSkewedAssociative:
    def test_skew_functions_differ_between_ways(self):
        cache = SkewedAssociativeCache(16 * 1024, 32, ways=2)
        # Blocks conflicting in way 0 should mostly not conflict in way 1.
        blocks = [i * cache.sets_per_way for i in range(1, 9)]
        way0 = {cache.skew_index(b, 0) for b in blocks}
        way1 = {cache.skew_index(b, 1) for b in blocks}
        assert len(way0) == 1  # aligned blocks collide in way 0
        assert len(way1) > 4  # but scatter in way 1

    def test_conflicting_pair_coexists(self):
        cache = SkewedAssociativeCache(512, 32, ways=2)
        cache.access(0x0)
        cache.access(0x200)
        assert cache.access(0x0).hit
        assert cache.access(0x200).hit

    def test_better_than_2way_on_high_degree_conflicts(self):
        """Skewing disperses conflicts a 2-way cache cannot hold."""
        rng = random.Random(5)
        addresses = [
            rng.choice(range(6)) * 16 * 1024 + 0x40 for _ in range(4000)
        ]
        skew = SkewedAssociativeCache(16 * 1024, 32, ways=2)
        twoway = SetAssociativeCache(16 * 1024, 32, ways=2)
        for address in addresses:
            skew.access(address)
            twoway.access(address)
        assert skew.miss_rate < twoway.miss_rate

    def test_eviction_reports_block_address(self):
        cache = SkewedAssociativeCache(512, 32, ways=2)
        cache.access(0x0, is_write=True)
        evicted = None
        address = 0x200
        while evicted is None:
            result = cache.access(address)
            evicted = result.evicted
            address += 0x200
        assert evicted % 32 == 0

    def test_flush(self):
        cache = SkewedAssociativeCache(512, 32, ways=2)
        cache.access(0x123)
        cache.flush()
        assert not cache.contains(0x123)


class TestHAC:
    def test_cam_width_matches_paper(self):
        """Section 6.7: 16 kB HAC needs 23 + 3 = 26 CAM bits."""
        hac = HighlyAssociativeCache(16 * 1024, 32, subarray_size=1024)
        assert hac.cam_tag_bits == 23
        assert hac.cam_entry_bits == 26

    def test_geometry(self):
        hac = HighlyAssociativeCache(16 * 1024)
        assert hac.ways == 32
        assert hac.num_subarrays == 16
        assert hac.num_sets == 16

    def test_behaves_as_32way(self):
        hac = HighlyAssociativeCache(16 * 1024)
        # 10 blocks conflicting at way-size stride coexist easily.
        blocks = [i * 16 * 1024 + 0x40 for i in range(10)]
        for address in blocks:
            hac.access(address)
        assert all(hac.access(a).hit for a in blocks)

    def test_invalid_subarray_size(self):
        with pytest.raises(ValueError):
            HighlyAssociativeCache(16 * 1024, subarray_size=1000)
