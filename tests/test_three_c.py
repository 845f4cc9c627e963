"""Tests for the 3C miss classifier and decomposition experiment."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import make_cache
from repro.caches.base import Cache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.engine.trace_store import default_store
from repro.experiments.common import ExperimentScale
from repro.experiments.miss_decomposition import run as run_decomposition
from repro.stats.three_c import (
    MissBreakdown,
    classify_misses,
    fully_associative_misses,
)

TINY = ExperimentScale(data_n=10_000, instr_n=10_000, instructions=5_000, seed=2006)

#: Every spec family the factory understands, all buildable at 4 kB.
FACTORY_SPECS = (
    "dm", "fa", "column", "hac", "agac", "pagecolor", "2way", "4way", "8way",
    "victim4", "victim16", "mf2_bas2", "mf8_bas8", "mf16_bas4", "skew2",
    "pam2", "psa2",
)


def lockstep_oracle(cache: Cache, addresses) -> MissBreakdown:
    """The per-access definition: run ``cache`` in lockstep with a
    same-capacity fully associative LRU reference and bucket each miss
    as it happens."""
    reference = FullyAssociativeCache(cache.size, cache.line_size, policy="lru")
    seen: set[int] = set()
    compulsory = capacity = conflict = accesses = 0
    for address in addresses:
        accesses += 1
        block = address >> cache.offset_bits
        hit = cache.access(address).hit
        reference_hit = reference.access(address).hit
        if not hit:
            if block not in seen:
                compulsory += 1
            elif not reference_hit:
                capacity += 1
            else:
                conflict += 1
        seen.add(block)
    return MissBreakdown(
        accesses=accesses, compulsory=compulsory, capacity=capacity, conflict=conflict
    )


def classify_one(cache: Cache, addresses) -> MissBreakdown:
    (breakdown,) = classify_misses([cache], addresses)
    return breakdown


class TestClassifier:
    def test_cold_misses_are_compulsory(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_one(cache, [i * 32 for i in range(8)])
        assert breakdown.compulsory == 8
        assert breakdown.capacity == 0
        assert breakdown.conflict == 0

    def test_pure_conflict_stream(self):
        """Two blocks thrashing one set of a big cache: all conflict."""
        cache = DirectMappedCache(16 * 1024, 32)
        addresses = [0x40, 0x40 + 16 * 1024] * 50
        breakdown = classify_one(cache, addresses)
        assert breakdown.compulsory == 2
        assert breakdown.capacity == 0
        assert breakdown.conflict == 98

    def test_pure_capacity_stream(self):
        """A cyclic scan over 2x the capacity in a FA-equivalent way:
        the direct-mapped cache's repeats are capacity misses."""
        cache = DirectMappedCache(512, 32)  # 16 blocks
        addresses = [i * 32 for i in range(32)] * 4
        breakdown = classify_one(cache, addresses)
        assert breakdown.compulsory == 32
        assert breakdown.capacity > 0
        assert breakdown.conflict == 0  # scan: DM == FA-LRU here

    def test_totals_match_cache_stats(self):
        rng = random.Random(1)
        cache = DirectMappedCache(512, 32)
        addresses = [rng.randrange(1 << 14) for _ in range(2000)]
        breakdown = classify_one(cache, addresses)
        assert breakdown.total_misses == cache.stats.misses
        assert breakdown.accesses == cache.stats.accesses

    def test_fraction_helpers(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_one(cache, [0, 0x200, 0, 0x200])
        assert breakdown.fraction("compulsory") + breakdown.fraction(
            "capacity"
        ) + breakdown.fraction("conflict") == pytest.approx(1.0)

    def test_mixed_geometries_rejected(self):
        for other in (DirectMappedCache(1024, 32), DirectMappedCache(512, 64)):
            with pytest.raises(ValueError, match="one capacity and line size"):
                classify_misses([DirectMappedCache(512, 32), other], [0])
        with pytest.raises(ValueError, match="one capacity and line size"):
            classify_misses([], [0])

    def test_empty_trace(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_one(cache, [])
        assert breakdown.miss_rate == 0.0
        assert breakdown.fraction("conflict") == 0.0

    def test_warm_cache_classifies_only_this_stream(self):
        """Misses are this call's; earlier history only warms the cache."""
        warm, oracle = DirectMappedCache(512, 32), DirectMappedCache(512, 32)
        for cache in (warm, oracle):
            cache.access_trace([0x0, 0x200, 0x400], [1, 0, 1])
        addresses = [0x0, 0x200, 0x0, 0x600, 0x200]
        assert classify_one(warm, addresses) == lockstep_oracle(oracle, addresses)

    @given(
        blocks=st.lists(st.integers(0, 511), max_size=300),
        offsets=st.integers(0, 31),
    )
    @settings(max_examples=40)
    def test_batched_equals_lockstep_oracle(self, blocks, offsets):
        """Every factory spec, one shared reference replay: each cache's
        breakdown equals the per-access lockstep classification."""
        addresses = [block * 32 + offsets for block in blocks]
        batched = classify_misses(
            [make_cache(spec, size=4096) for spec in FACTORY_SPECS], addresses
        )
        for spec, breakdown in zip(FACTORY_SPECS, batched):
            expected = lockstep_oracle(make_cache(spec, size=4096), addresses)
            assert breakdown == expected, spec


class TestFullyAssociativePass:
    """The LRU pass stands in for a ``FullyAssociativeCache`` replay."""

    @pytest.mark.parametrize("size", (4096, 16 * 1024, 64 * 1024))
    @pytest.mark.parametrize("line_size", (16, 64))
    def test_matches_fully_associative_cache(self, size, line_size):
        rng = random.Random(size + line_size)
        hot = [rng.randrange(1 << 22) for _ in range(3 * size // line_size)]
        addresses = [
            rng.choice(hot) if rng.random() < 0.7 else rng.randrange(1 << 24)
            for _ in range(6000)
        ]
        reference = FullyAssociativeCache(size, line_size, policy="lru")
        expected = {
            position
            for position, address in enumerate(addresses)
            if not reference.access(address).hit
        }
        misses, first = fully_associative_misses(
            addresses, size // line_size, reference.offset_bits
        )
        assert misses == expected
        assert 0 < len(first) < len(misses) < len(addresses)


class TestDecomposition:
    @pytest.fixture(scope="class")
    def result(self):
        return run_decomposition(TINY, benchmarks=("equake", "mcf"))

    def test_baseline_equake_is_conflict_dominated(self, result):
        assert result.conflict_share("dm", "equake") > 0.5

    def test_bcache_removes_conflict_bucket(self, result):
        dm = result.breakdowns["dm"]["equake"]
        bc = result.breakdowns["mf8_bas8"]["equake"]
        assert bc.conflict < dm.conflict / 2
        # Compulsory misses are untouchable by any organisation.
        assert bc.compulsory == dm.compulsory

    def test_mcf_has_little_conflict_to_remove(self, result):
        assert result.conflict_share("dm", "mcf") < 0.25

    def test_matches_lockstep_oracle(self, result):
        addresses = default_store().addresses("mcf", "data", TINY.data_n, TINY.seed)
        for spec in result.specs:
            expected = lockstep_oracle(make_cache(spec), addresses)
            assert result.breakdowns[spec]["mcf"] == expected, spec

    def test_renders(self, result):
        text = result.render()
        assert "conflict %" in text and "equake" in text
