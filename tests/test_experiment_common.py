"""Tests for the experiment plumbing (scales, memoisation, runners)."""

import pytest

from repro.caches import make_cache
from repro.engine.trace_store import default_store
from repro.experiments.common import (
    DEFAULT,
    FULL,
    SMOKE,
    ExperimentScale,
    clear_trace_caches,
    miss_rate,
    run_side,
    run_system,
)


def data_addresses(benchmark: str, n: int, seed: int) -> memoryview:
    return default_store().addresses(benchmark, "data", n, seed)


class TestScales:
    def test_presets_ordered(self):
        assert SMOKE.data_n < DEFAULT.data_n < FULL.data_n
        assert SMOKE.instructions < DEFAULT.instructions

    def test_scaled(self):
        half = DEFAULT.scaled(0.5)
        assert half.data_n == DEFAULT.data_n // 2
        assert half.seed == DEFAULT.seed

    def test_scaled_floor(self):
        tiny = DEFAULT.scaled(0.000001)
        assert tiny.data_n >= 1000


class TestMemoisation:
    """The trace store's in-memory LRU hands out read-only views of one
    decoded column per trace until :func:`clear_trace_caches`."""

    def test_same_key_returns_same_object(self):
        a = data_addresses("gzip", 500, 1)
        b = data_addresses("gzip", 500, 1)
        assert a.obj is b.obj

    def test_different_seed_differs(self):
        assert data_addresses("gzip", 500, 1) != data_addresses("gzip", 500, 2)

    def test_instr_cache(self):
        a = default_store().addresses("gcc", "instr", 500, 1)
        assert a.obj is default_store().addresses("gcc", "instr", 500, 1).obj

    def test_clear(self):
        a = data_addresses("gzip", 500, 1)
        clear_trace_caches()
        b = data_addresses("gzip", 500, 1)
        assert a == b and a.obj is not b.obj


class TestRunners:
    SCALE = ExperimentScale(data_n=2000, instr_n=2000, instructions=1000)

    def test_run_side_data(self):
        stats = run_side("dm", "gzip", "data", self.SCALE)
        assert stats.accesses == 2000

    def test_run_side_instr(self):
        stats = run_side("dm", "gzip", "instr", self.SCALE)
        assert stats.accesses == 2000

    def test_run_side_invalid_side(self):
        with pytest.raises(ValueError, match="side"):
            run_side("dm", "gzip", "icache", self.SCALE)

    def test_miss_rate_between_zero_and_one(self):
        rate = miss_rate("dm", "gzip", "data", self.SCALE)
        assert 0.0 < rate < 1.0

    def test_run_system_attaches_hierarchy(self):
        result = run_system("dm", "gzip", self.SCALE)
        assert result.instructions == 1000
        assert hasattr(result, "hierarchy")

    def test_policy_forwarded(self):
        stats = run_side("mf8_bas8", "equake", "data", self.SCALE, policy="random")
        cache = make_cache("mf8_bas8", policy="random")
        cache.access_trace(data_addresses("equake", self.SCALE.data_n, self.SCALE.seed))
        assert stats == cache.stats
        assert stats != run_side("mf8_bas8", "equake", "data", self.SCALE)

    def test_size_forwarded(self):
        small = run_side("dm", "equake", "data", self.SCALE, size=8 * 1024)
        large = run_side("dm", "equake", "data", self.SCALE, size=32 * 1024)
        assert small.num_sets == 256 and large.num_sets == 1024
