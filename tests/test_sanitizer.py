"""Runtime sanitizer: transparent on correct caches, loud on corrupted
ones, and bit-identical to an unwrapped run (acceptance criterion)."""

from __future__ import annotations

import random

import pytest

from repro.analysis.reference import ReferenceSetAssociativeLRU, reference_for
from repro.analysis.sanitizer import (
    SanitizedCache,
    SanitizerError,
    check_bcache_geometry,
    global_sanitizer_installed,
    install_global_sanitizer,
    uninstall_global_sanitizer,
)
from repro.caches.base import AccessResult
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.victim import VictimBufferCache
from repro.core.bcache import BCache
from repro.core.config import BCacheGeometry
from repro.workloads.spec2k import get_profile


def random_stream(n: int, span: int = 1 << 18, seed: int = 7) -> list[tuple[int, bool]]:
    rng = random.Random(seed)
    return [(rng.randrange(span), rng.random() < 0.3) for _ in range(n)]


# ----------------------------------------------------------------------
# Transparency: wrapping changes nothing.
# ----------------------------------------------------------------------
class TestTransparency:
    def test_bcache_synthetic_workload_bit_identical(self):
        """Acceptance: a sanitizer-wrapped B-Cache over a synthetic
        workload reports zero violations and bit-identical miss rates."""
        geometry = BCacheGeometry(16 * 1024, 32, mapping_factor=8, associativity=8)
        trace = list(get_profile("equake").data_trace(20_000, seed=2006))
        plain = BCache(geometry, policy="lru", seed=3)
        wrapped = SanitizedCache(
            BCache(geometry, policy="lru", seed=3), check_interval=64
        )
        plain_stats = plain.run(trace)
        wrapped_stats = wrapped.run(trace)
        summary = wrapped.finalize()  # zero violations or this raises
        assert summary["accesses_checked"] == len(trace)
        assert summary["structural_checks"] > 0
        assert wrapped_stats.as_dict() == plain_stats.as_dict()
        assert wrapped_stats.miss_rate == plain_stats.miss_rate

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DirectMappedCache(2048, 32),
            lambda: SetAssociativeCache(2048, 32, ways=4, seed=9),
            lambda: FullyAssociativeCache(1024, 32, seed=9),
        ],
        ids=["dm", "4way", "fa"],
    )
    def test_conventional_caches_run_clean(self, make):
        plain, wrapped = make(), SanitizedCache(make(), check_interval=16)
        for address, is_write in random_stream(8000):
            plain.access(address, is_write)
            wrapped.access(address, is_write)
        wrapped.finalize()
        assert wrapped.stats.as_dict() == plain.stats.as_dict()

    def test_wrapper_delegates_cache_observables(self, headline_geometry):
        wrapped = SanitizedCache(BCache(headline_geometry))
        wrapped.access(0x1234)
        assert wrapped.pd_hit_rate_during_miss == 0.0
        assert wrapped.contains(0x1234)
        assert wrapped.name.startswith("BCache")
        assert wrapped.miss_rate == 1.0

    def test_flush_resets_shadow_and_stats(self):
        wrapped = SanitizedCache(DirectMappedCache(1024, 32), check_interval=1)
        for address, is_write in random_stream(500):
            wrapped.access(address, is_write)
        wrapped.flush()
        assert wrapped.stats.accesses == 0
        for address, is_write in random_stream(500, seed=11):
            wrapped.access(address, is_write)
        wrapped.finalize()


# ----------------------------------------------------------------------
# Detection: deliberately broken models must trip.
# ----------------------------------------------------------------------
class PhantomHitCache(DirectMappedCache):
    """Claims a hit for every reference."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        return AccessResult(hit=True, set_index=block & self._index_mask)


class SilentEvictionCache(DirectMappedCache):
    """Overwrites resident blocks without reporting the eviction."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        if self._tags[index] == tag:
            return AccessResult(hit=True, set_index=index)
        self._tags[index] = tag
        self._dirty[index] = is_write
        return AccessResult(hit=False, set_index=index)


class AlwaysDirtyEvictionCache(DirectMappedCache):
    """Reports every eviction as dirty regardless of write history."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        result = super()._access_block(block, is_write)
        if result.evicted is None:
            return result
        return AccessResult(
            hit=result.hit,
            set_index=result.set_index,
            evicted=result.evicted,
            evicted_dirty=True,
        )


class MiscountingCache(DirectMappedCache):
    """Inflates the miss counter behind the base class's back."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        result = super()._access_block(block, is_write)
        self.stats.misses += 1
        return result


class DoubleCountingVictimCache(VictimBufferCache):
    """Counts every victim-buffer swap-in as a slow hit twice."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        result = super()._access_block(block, is_write)
        if result.extra_cycles:
            self.stats.slow_hits += 1
        return result


class MissWithExtraCyclesCache(DirectMappedCache):
    """Charges extra cycles to misses, which have no slow path."""

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        result = super()._access_block(block, is_write)
        if result.hit:
            return result
        return AccessResult(
            hit=False, set_index=result.set_index, evicted=result.evicted,
            evicted_dirty=result.evicted_dirty, extra_cycles=1,
        )


class TestDetection:
    LINE = 32

    def set_conflict_addresses(self, cache: DirectMappedCache) -> list[int]:
        """Addresses that all land in set 0 of a direct-mapped cache."""
        stride = cache.num_sets * self.LINE
        return [i * stride for i in range(4)]

    def test_phantom_hit_detected(self):
        wrapped = SanitizedCache(PhantomHitCache(1024, self.LINE))
        with pytest.raises(SanitizerError, match="never filled"):
            wrapped.access(0x40)

    def test_silent_eviction_detected(self):
        cache = SilentEvictionCache(1024, self.LINE)
        wrapped = SanitizedCache(cache, check_interval=10_000)
        a, b, *_ = self.set_conflict_addresses(cache)
        wrapped.access(a)
        wrapped.access(b)  # overwrites a without reporting it
        with pytest.raises(SanitizerError, match="still-resident"):
            wrapped.access(a)

    def test_wrong_writeback_flag_detected(self):
        cache = AlwaysDirtyEvictionCache(1024, self.LINE)
        wrapped = SanitizedCache(cache, check_interval=10_000)
        a, b, *_ = self.set_conflict_addresses(cache)
        wrapped.access(a, is_write=False)  # clean resident
        with pytest.raises(SanitizerError, match="writeback flag"):
            wrapped.access(b)

    def test_stats_miscounting_detected(self):
        wrapped = SanitizedCache(MiscountingCache(1024, self.LINE), check_interval=1)
        with pytest.raises(SanitizerError, match="stats.misses"):
            wrapped.access(0x40)

    def test_slow_hit_double_count_detected(self):
        wrapped = SanitizedCache(
            DoubleCountingVictimCache(1024, self.LINE, victim_entries=4),
            strict=False, check_interval=10_000,
        )
        for address in (0x0, 0x400, 0x0):  # the last is a buffer swap-in
            wrapped.access(address)
        assert wrapped.stats.slow_hits == 2
        with pytest.raises(SanitizerError, match="slow_hits"):
            wrapped.finalize()

    def test_extra_cycles_on_a_miss_detected(self):
        wrapped = SanitizedCache(MissWithExtraCyclesCache(1024, self.LINE))
        with pytest.raises(SanitizerError, match="only a hit may take extra"):
            wrapped.access(0x40)

    def test_slow_hit_cycles_below_slow_hits_detected(self):
        cache = VictimBufferCache(1024, self.LINE, victim_entries=4)
        wrapped = SanitizedCache(cache, strict=False, check_interval=10_000)
        for address in (0x0, 0x400, 0x0):
            wrapped.access(address)
        cache.stats.slow_hit_cycles -= 1
        with pytest.raises(SanitizerError, match="fell below slow_hits"):
            wrapped.finalize()

    def test_duplicate_set_residents_detected(self):
        cache = SetAssociativeCache(1024, 32, ways=2)
        wrapped = SanitizedCache(cache, check_interval=1)
        for address, is_write in random_stream(200):
            wrapped.access(address, is_write)
        victim_set = next(
            i for i in range(cache.num_sets) if min(cache._tags[2 * i:2 * i + 2]) >= 0
        )
        cache._tags[2 * victim_set + 1] = cache._tags[2 * victim_set]
        with pytest.raises(SanitizerError, match="duplicate"):
            wrapped.checker.check_structure()

    def test_dirty_on_invalid_line_detected(self):
        cache = DirectMappedCache(1024, 32)
        wrapped = SanitizedCache(cache, check_interval=1)
        wrapped.access(0x40)
        empty_set = cache._tags.index(-1)
        cache._dirty[empty_set] = True
        with pytest.raises(SanitizerError, match="dirty bit"):
            wrapped.checker.check_structure()

    def test_duplicate_pd_entry_detected(self, headline_geometry):
        cache = BCache(headline_geometry, seed=5)
        wrapped = SanitizedCache(cache, check_interval=1)
        for address, is_write in random_stream(3000):
            wrapped.access(address, is_write)
        decoder = cache.decoder
        row = next(
            r
            for r in range(headline_geometry.num_rows)
            if len(decoder.invalid_clusters(r)) <= decoder.num_clusters - 2
        )
        base = row * decoder.num_clusters
        values = decoder._values
        clusters = [c for c in range(decoder.num_clusters) if values[base + c] >= 0][:2]
        values[base + clusters[1]] = values[base + clusters[0]]  # break CAM uniqueness
        with pytest.raises(SanitizerError, match="decoder integrity"):
            wrapped.checker.check_structure()


# ----------------------------------------------------------------------
# Geometry equations (Section 3.1).
# ----------------------------------------------------------------------
class TestGeometryInvariants:
    def test_valid_design_points_pass(self):
        for mf in (1, 2, 8):
            for bas in (1, 2, 8):
                check_bcache_geometry(
                    BCacheGeometry(16 * 1024, 32, mapping_factor=mf, associativity=bas)
                )

    def test_corrupted_derivation_fails(self, headline_geometry):
        object.__setattr__(headline_geometry, "pi_bits", 5)
        with pytest.raises(SanitizerError):
            check_bcache_geometry(headline_geometry)

    def test_wrapping_validates_geometry(self, headline_geometry):
        object.__setattr__(headline_geometry, "npi_bits", 4)
        with pytest.raises(SanitizerError):
            SanitizedCache(BCache(headline_geometry))


# ----------------------------------------------------------------------
# Differential mode.
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DirectMappedCache(1024, 32),
            lambda: SetAssociativeCache(1024, 32, ways=4),
            lambda: FullyAssociativeCache(512, 32),
        ],
        ids=["dm", "4way", "fa"],
    )
    def test_agrees_with_reference(self, make):
        wrapped = SanitizedCache(make(), differential=True, check_interval=64)
        for address, is_write in random_stream(6000, span=1 << 15):
            wrapped.access(address, is_write)
        wrapped.finalize()

    def test_unsupported_cache_is_rejected(self):
        with pytest.raises(ValueError, match="no reference model"):
            SanitizedCache(VictimBufferCache(1024, 32), differential=True)
        assert reference_for(VictimBufferCache(1024, 32)) is None

    def test_non_lru_policy_divergence_detected(self):
        # A FIFO cache disguised as LRU: on [a, b, touch a, c] FIFO
        # evicts a while LRU evicts b, so the next access to a
        # diverges.  The shadow checks all pass (the cache is
        # self-consistent) — only the differential catches it.
        cache = SetAssociativeCache(128, 32, ways=2, policy="fifo")
        cache.policy_name = "lru"  # fool reference_for on purpose
        wrapped = SanitizedCache(cache, differential=True, check_interval=10_000)
        stride = cache.num_sets * 32
        a, b, c = 0, stride, 2 * stride
        wrapped.access(a)
        wrapped.access(b)
        wrapped.access(a)  # LRU now prefers evicting b; FIFO still evicts a
        wrapped.access(c)
        with pytest.raises(SanitizerError, match="differential divergence"):
            wrapped.access(a)

    def test_reference_model_is_plain_lru(self):
        reference = ReferenceSetAssociativeLRU(2, 2, 5)
        line = 32
        assert reference.access(0 * line) is False
        assert reference.access(2 * line) is False  # same set, second way
        assert reference.access(0 * line) is True
        assert reference.access(4 * line) is False  # evicts block 2
        assert reference.access(2 * line) is False


# ----------------------------------------------------------------------
# Global (class-level) hook.
# ----------------------------------------------------------------------
class TestGlobalHook:
    @pytest.fixture()
    def fast_global_hook(self):
        was_installed = global_sanitizer_installed()
        uninstall_global_sanitizer()
        install_global_sanitizer(check_interval=1)
        yield
        uninstall_global_sanitizer()
        if was_installed:
            install_global_sanitizer(check_interval=256)

    def test_structural_corruption_detected(self, fast_global_hook):
        cache = SetAssociativeCache(512, 32, ways=2)
        for address, is_write in random_stream(300):
            cache.access(address, is_write)
        target = next(
            i for i in range(cache.num_sets) if min(cache._tags[2 * i:2 * i + 2]) >= 0
        )
        cache._tags[2 * target + 1] = cache._tags[2 * target]
        # Probe a different set so the access cannot repair the
        # corruption before the periodic structural scan sees it.
        with pytest.raises(SanitizerError, match="duplicate"):
            cache.access(((target + 1) % cache.num_sets) * 32)

    def test_lenient_mode_survives_fault_injection(self, fast_global_hook):
        # Out-of-band mutation must resynchronise, not fail: tests
        # legitimately poke cache internals (e.g. FA invalidation).
        cache = FullyAssociativeCache(512, 32)
        for address, is_write in random_stream(200):
            cache.access(address, is_write)
        # Invalidate a resident block behind the cache's back.
        line = next(way for way, tag in enumerate(cache._tags) if tag >= 0)
        cache._tags[line] = -1
        cache._dirty[line] = False
        for address, is_write in random_stream(200, seed=13):
            cache.access(address, is_write)

    def test_install_is_idempotent_and_reversible(self, fast_global_hook):
        from repro.caches.base import Cache

        patched = Cache.access
        install_global_sanitizer()  # second install: no-op
        assert Cache.access is patched
        uninstall_global_sanitizer()
        assert Cache.access is not patched
        uninstall_global_sanitizer()  # double uninstall: no-op
        install_global_sanitizer(check_interval=1)  # restore for fixture


def test_sanitize_fixture_wraps_strictly(sanitize):
    wrapped = sanitize(DirectMappedCache(1024, 32))
    for address, is_write in random_stream(1000):
        wrapped.access(address, is_write)
    assert wrapped.finalize()["accesses_checked"] == 1000
