"""Unit tests for the direct-mapped cache + victim buffer (Jouppi)."""

import pytest

from repro.caches.victim import VictimBufferCache


@pytest.fixture
def cache() -> VictimBufferCache:
    return VictimBufferCache(512, 32, victim_entries=4)


class TestSwapSemantics:
    def test_buffer_catches_conflict_victim(self, cache):
        cache.access(0x0)
        cache.access(0x200)  # evicts 0x0 into the buffer
        result = cache.access(0x0)  # buffer hit: swap back
        assert result.hit and result.extra_cycles == 1
        assert cache.stats.slow_hits == 1

    def test_swap_restores_one_cycle_hits(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        cache.access(0x0)  # swap
        assert cache.access(0x0).extra_cycles == 0  # now a main-cache hit
        assert cache.stats.hits == 2
        assert cache.stats.slow_hits == cache.stats.slow_hit_cycles == 1

    def test_displaced_block_enters_buffer_on_swap(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        cache.access(0x0)  # 0x200 displaced into buffer
        assert cache.access(0x200).hit  # buffer hit again

    def test_thrashing_pair_all_hits_after_warmup(self, cache):
        """The buffer turns a 2-tag DM thrash into hits (paper Sec 2.1)."""
        for address in (0x0, 0x200):
            cache.access(address)
        hits = [cache.access(a).hit for a in (0x0, 0x200) * 4]
        assert all(hits)

    def test_dirty_bit_preserved_through_swap(self, cache):
        cache.access(0x0, is_write=True)
        cache.access(0x200)  # dirty 0x0 -> buffer
        cache.access(0x0)  # swap back, still dirty
        cache.access(0x200)  # 0x0 -> buffer again (dirty)
        # Push 4 more victims through the buffer to evict dirty 0x0.
        for i in range(2, 7):
            cache.access(i * 0x200)
            cache.access(0x20 * i)  # unrelated sets, no buffer traffic
        assert cache.stats.writebacks >= 1


class TestBufferCapacity:
    def test_lru_eviction_from_buffer(self, cache):
        # Fill buffer with victims of sets 0..4 (5 victims > 4 entries).
        for i in range(6):
            cache.access(i * 0x20)
            cache.access(i * 0x20 + 0x200)
        # The oldest victim (0x0) fell out of the 4-entry buffer.
        assert not cache.access(0x0).hit

    def test_buffer_hit_fraction(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        cache.access(0x0)
        assert cache.stats.slow_hits / cache.stats.hits == pytest.approx(1.0)

    def test_entries_bound(self):
        with pytest.raises(ValueError):
            VictimBufferCache(512, 32, victim_entries=0)


class TestAccounting:
    def test_swap_is_not_a_miss(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        cache.access(0x0)
        assert cache.stats.misses == 2  # the two cold misses only

    def test_swaps_do_not_write_back(self, cache):
        cache.access(0x0, is_write=True)
        cache.access(0x200)
        result = cache.access(0x0)  # swap of a dirty block
        assert result.evicted is None

    def test_probe_sees_buffer_contents(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        assert cache.contains(0x0)

    def test_flush(self, cache):
        cache.access(0x0)
        cache.access(0x200)
        cache.flush()
        assert not cache.contains(0x0)
        assert cache.stats.slow_hits == 0
