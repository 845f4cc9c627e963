"""Unit tests for the Section 7 prior-art organisations: adaptive
group-associative, page colouring, and way-predicting caches."""

import random

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.group_associative import GroupAssociativeCache
from repro.caches.page_coloring import PageColoringCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.way_predicting import (
    PartialAddressMatchingCache,
    PredictiveSequentialCache,
)


def conflict_trace(degree: int, n: int, seed: int = 0, stride: int = 16 * 1024):
    rng = random.Random(seed)
    return [
        rng.randrange(degree) * stride + 0x40 + rng.randrange(4) * 32
        for _ in range(n)
    ]


class TestGroupAssociative:
    def test_relocation_catches_conflicts(self):
        agac = GroupAssociativeCache(16 * 1024, 32)
        dm = DirectMappedCache(16 * 1024, 32)
        for address in conflict_trace(3, 3000):
            agac.access(address)
            dm.access(address)
        assert agac.stats.misses < dm.stats.misses / 2

    def test_relocated_hits_tracked(self):
        agac = GroupAssociativeCache(16 * 1024, 32)
        for address in conflict_trace(3, 2000):
            agac.access(address)
        stats = agac.stats
        assert 0 < stats.slow_hits < stats.hits
        assert stats.slow_hit_cycles == 2 * stats.slow_hits  # 3-cycle hits

    def test_promotion_moves_block_home(self):
        agac = GroupAssociativeCache(512, 32, sht_fraction=0.5)
        a, b = 0x0, 0x200  # same home set
        agac.access(a)
        agac.access(b)  # displaces a into a hole
        agac.access(a)  # relocated hit, promotes a home
        assert agac.contains(a)
        result = agac.access(a)
        assert result.hit  # now a direct hit

    def test_dirty_data_survives_relocation(self):
        agac = GroupAssociativeCache(512, 32)
        agac.access(0x0, is_write=True)
        agac.access(0x200)  # 0x0 relocated, still dirty
        agac.access(0x400)  # 0x200 relocated too
        # Push until 0x0's frame is truly evicted; its writeback must
        # eventually be counted.
        for i in range(3, 40):
            agac.access(i * 0x200)
        assert agac.stats.writebacks >= 1 or agac.contains(0x0)

    def test_probe_sees_relocated_blocks(self):
        agac = GroupAssociativeCache(512, 32)
        agac.access(0x0)
        agac.access(0x200)
        assert agac.contains(0x0) and agac.contains(0x200)

    def test_flush(self):
        agac = GroupAssociativeCache(512, 32)
        agac.access(0x0)
        agac.flush()
        assert not agac.contains(0x0)
        assert agac.stats.slow_hits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupAssociativeCache(512, 32, sht_fraction=0.0)
        with pytest.raises(ValueError):
            GroupAssociativeCache(512, 32, sht_fraction=1.0)


class TestPageColoring:
    def test_recoloring_reduces_page_conflicts(self):
        """Two pages thrashing the same colour get separated by the OS."""
        colored = PageColoringCache(16 * 1024, 32, threshold=16)
        dm = DirectMappedCache(16 * 1024, 32)
        for address in conflict_trace(2, 4000):
            colored.access(address)
            dm.access(address)
        assert colored.recolored_pages >= 1
        assert colored.stats.misses < dm.stats.misses / 2

    def test_near_2way_shape_on_pairs(self):
        """The paper: page colouring ~ 2-way.  After recolouring, the
        thrashing pair stops missing, but the software fix is never
        *better* than hardware associativity (it paid recolour misses
        first)."""
        colored = PageColoringCache(16 * 1024, 32, threshold=16)
        twoway = SetAssociativeCache(16 * 1024, 32, ways=2)
        trace = conflict_trace(2, 4000, seed=3)
        for address in trace:
            colored.access(address)
            twoway.access(address)
        assert colored.stats.miss_rate < 0.03  # conflicts resolved
        assert colored.stats.misses >= twoway.stats.misses

    def test_blocks_remain_findable_after_recolor(self):
        colored = PageColoringCache(16 * 1024, 32, threshold=8)
        trace = conflict_trace(2, 2000, seed=1)
        for address in trace:
            colored.access(address)
        # Re-access the trailing working set: no aliasing or lost state.
        for address in trace[-50:]:
            result = colored.access(address)
            assert result.set_index < colored.num_sets

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PageColoringCache(16 * 1024, 32, page_size=4000)
        with pytest.raises(ValueError):
            PageColoringCache(10 * 1024, 32, page_size=4096)

    def test_colors(self):
        cache = PageColoringCache(16 * 1024, 32, page_size=4096)
        assert cache.num_colors == 4
        assert cache.color_bits == 2

    def test_flush(self):
        cache = PageColoringCache(16 * 1024, 32, threshold=4)
        for address in conflict_trace(2, 500):
            cache.access(address)
        cache.flush()
        assert cache.recolored_pages == 0
        assert not cache.contains(0x40)


class TestPartialAddressMatching:
    def test_miss_rate_equals_plain_set_associative(self):
        """Way prediction changes latency, never the contents."""
        pam = PartialAddressMatchingCache(16 * 1024, 32, ways=2)
        plain = SetAssociativeCache(16 * 1024, 32, ways=2)
        rng = random.Random(5)
        for _ in range(3000):
            address = rng.randrange(1 << 20)
            assert pam.access(address).hit == plain.access(address).hit

    def test_fast_hits_dominate_with_distinct_partial_tags(self):
        pam = PartialAddressMatchingCache(16 * 1024, 32, ways=2, pad_bits=5)
        # Two conflicting blocks whose low tag bits differ.
        for _ in range(50):
            pam.access(0x0)
            pam.access(0x4000)  # tag differs in bit 0 -> PAD separates
        assert pam.stats.hits > 0
        assert pam.stats.slow_hits / pam.stats.hits < 0.2

    def test_aliased_partial_tags_cause_slow_hits(self):
        pam = PartialAddressMatchingCache(16 * 1024, 32, ways=2, pad_bits=2)
        # Tags differing only above the PAD bits: both PAD entries match.
        stride = 16 * 1024 << 2
        for _ in range(50):
            pam.access(0x0)
            pam.access(stride)
        assert pam.stats.slow_hits > 0
        assert pam.stats.slow_hit_cycles == pam.stats.slow_hits

    def test_validation(self):
        with pytest.raises(ValueError):
            PartialAddressMatchingCache(16 * 1024, 32, ways=2, pad_bits=0)

    def test_flush_resets_latency_counters(self):
        pam = PartialAddressMatchingCache(16 * 1024, 32, ways=2)
        pam.access(0x0)
        pam.access(0x0)
        pam.flush()
        assert pam.stats.hits == 0 and pam.stats.slow_hits == 0


class TestPredictiveSequential:
    def test_miss_rate_equals_plain_set_associative(self):
        psa = PredictiveSequentialCache(16 * 1024, 32, ways=2)
        plain = SetAssociativeCache(16 * 1024, 32, ways=2)
        rng = random.Random(6)
        for _ in range(3000):
            address = rng.randrange(1 << 20)
            assert psa.access(address).hit == plain.access(address).hit

    def test_repeated_access_is_fast(self):
        psa = PredictiveSequentialCache(16 * 1024, 32, ways=2)
        psa.access(0x0)
        psa.access(0x0)
        psa.access(0x0)
        assert psa.stats.hits == 2
        assert psa.stats.slow_hits == 0

    def test_alternation_causes_slow_hits(self):
        psa = PredictiveSequentialCache(16 * 1024, 32, ways=2)
        for _ in range(20):
            psa.access(0x0)
            psa.access(0x4000)  # same set, other way: misprediction
        assert psa.stats.slow_hits > 10
        assert psa.stats.slow_hit_cycles >= psa.stats.slow_hits

    def test_mru_update_after_fill(self):
        psa = PredictiveSequentialCache(512, 32, ways=2)
        psa.access(0x0)
        result = psa.access(0x0)
        assert result.hit and result.extra_cycles == 0

    def test_flush(self):
        psa = PredictiveSequentialCache(512, 32, ways=2)
        psa.access(0x0)
        psa.flush()
        assert psa.stats.hits == 0 and psa.stats.slow_hit_cycles == 0


class TestFactoryIntegration:
    @pytest.mark.parametrize("spec,cls", [
        ("agac", GroupAssociativeCache),
        ("pagecolor", PageColoringCache),
        ("pam2", PartialAddressMatchingCache),
        ("psa4", PredictiveSequentialCache),
    ])
    def test_factory_specs(self, spec, cls):
        from repro.caches import make_cache

        cache = make_cache(spec)
        assert isinstance(cache, cls)
