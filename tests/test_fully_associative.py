"""Unit tests for the fully associative cache."""

import pytest

from repro.caches.fully_associative import FullyAssociativeCache


@pytest.fixture
def cache() -> FullyAssociativeCache:
    return FullyAssociativeCache(4 * 32, 32)  # 4 entries


class TestBasics:
    def test_no_conflict_misses(self, cache):
        """Addresses that thrash a DM cache coexist here."""
        for address in (0x0, 0x4000, 0x8000, 0xC000):
            cache.access(address)
        assert all(
            cache.access(a).hit for a in (0x0, 0x4000, 0x8000, 0xC000)
        )

    def test_capacity_eviction_is_lru(self, cache):
        for address in (0x0, 0x100, 0x200, 0x300):
            cache.access(address)
        result = cache.access(0x400)
        assert not result.hit
        assert result.evicted == 0x0

    def test_touch_refreshes_lru(self, cache):
        for address in (0x0, 0x100, 0x200, 0x300):
            cache.access(address)
        cache.access(0x0)
        result = cache.access(0x400)
        assert result.evicted == 0x100

    def test_dirty_eviction(self, cache):
        cache.access(0x0, is_write=True)
        for address in (0x100, 0x200, 0x300, 0x400):
            cache.access(address)
        assert cache.stats.writebacks == 1


class TestFlush:
    def test_flush(self, cache):
        cache.access(0x0)
        cache.flush()
        assert not cache.contains(0x0)
        assert cache.stats.accesses == 0

    def test_reuse_after_flush(self, cache):
        cache.access(0x0)
        cache.flush()
        assert not cache.access(0x0).hit
        assert cache.access(0x0).hit
