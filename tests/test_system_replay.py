"""The batched system replay against the per-access hierarchy API.

``OoOProcessorModel.run`` replays a combined stream as batches (L1I and
L1D each one batch, their next-level streams merged into one L2 batch).
The oracle is the per-access path: one ``fetch_instruction`` /
``access_data`` call per reference, stall cycles summed as they occur.
Every case compares the ``ExecutionResult``, the ``HierarchyStats``, the
L1I/L1D/L2 ``CacheStats`` and each level's ``slow_hits``.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable

import pytest

from repro.caches import make_cache
from repro.caches.base import Cache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.factory import FIGURE89_SPECS
from repro.caches.victim import VictimBufferCache
from repro.core.bcache import BCache
from repro.core.config import BCacheGeometry
from repro.cpu.timing import ExecutionResult, OoOProcessorModel, ProcessorConfig
from repro.engine.trace_store import default_store
from repro.hierarchy.levels import CacheLevel, TimedAccess
from repro.hierarchy.memory_system import MemoryHierarchy
from repro.trace.access import Access, AccessType
from repro.workloads.spec2k import ALL_BENCHMARKS

INSTRUCTIONS = 2_000
SEED = 2006
IFETCH = int(AccessType.IFETCH)
WRITE = int(AccessType.WRITE)


def stream(workload: str) -> tuple[memoryview, memoryview]:
    return default_store().accesses(workload, "combined", INSTRUCTIONS, SEED)


def per_access(
    hierarchy: MemoryHierarchy, addresses, kinds, config: ProcessorConfig | None = None
) -> ExecutionResult:
    """The reference replay: the per-access API, one reference at a time."""
    config = config or ProcessorConfig()
    hit_latency = hierarchy.l1i.hit_latency
    instructions = 0
    ifetch_stalls = data_stalls = 0.0
    for address, kind in zip(addresses, kinds):
        if kind == IFETCH:
            instructions += 1
            ifetch_stalls += hierarchy.fetch_instruction(address) - hit_latency
        else:
            data_stalls += hierarchy.access_data(address, kind == WRITE) - hit_latency
    hierarchy._sync_miss_counts()
    stats = hierarchy.stats
    return ExecutionResult(
        instructions=instructions,
        cycles=(
            instructions * config.base_cpi
            + ifetch_stalls * config.ifetch_exposure
            + data_stalls * config.data_exposure
        ),
        ifetch_stall_cycles=ifetch_stalls * config.ifetch_exposure,
        data_stall_cycles=data_stalls * config.data_exposure,
        l1i_miss_rate=stats.l1i_miss_rate,
        l1d_miss_rate=stats.l1d_miss_rate,
        l2_accesses=stats.l2_accesses,
        l2_misses=stats.l2_misses,
        memory_accesses=stats.memory_accesses,
    )


def snapshot(hierarchy: MemoryHierarchy) -> tuple:
    levels = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    return (
        hierarchy.stats,
        tuple(level.cache.stats for level in levels),
        tuple(level.slow_hits for level in levels),
    )


def pair(
    l1: Callable[[], Cache], l2: Callable[[], Cache] | None = None
) -> tuple[MemoryHierarchy, MemoryHierarchy]:
    """Two identical hierarchies: one batched, one per-access."""
    return tuple(  # type: ignore[return-value]
        MemoryHierarchy(l1i=l1(), l1d=l1(), l2=None if l2 is None else l2())
        for _ in range(2)
    )


def assert_identical(batched: MemoryHierarchy, reference: MemoryHierarchy,
                     addresses, kinds) -> ExecutionResult:
    result = OoOProcessorModel(batched).run(addresses, kinds)
    expected = per_access(reference, addresses, kinds)
    assert result == expected
    assert snapshot(batched) == snapshot(reference)
    return result


def store_heavy(
    n: int, seed: int = 5, rows: int = 4, conflicts: int = 48, stride: int = 4096
) -> tuple[array, array]:
    """80 % stores over ``rows`` consecutive lines, each with
    ``conflicts`` aliases ``stride`` bytes apart; every fourth reference
    is an ifetch, and the stream starts with data."""
    rng = random.Random(seed)
    addresses = array("Q")
    kinds = array("B")
    for position in range(n):
        if position % 4 == 3:
            addresses.append(0x400000 + 32 * rng.randrange(64))
            kinds.append(IFETCH)
        else:
            addresses.append(
                0x10000000 + 32 * rng.randrange(rows) + stride * rng.randrange(conflicts)
            )
            kinds.append(WRITE if rng.random() < 0.8 else int(AccessType.READ))
    return addresses, kinds


@pytest.mark.parametrize("spec", ("dm",) + FIGURE89_SPECS)
@pytest.mark.parametrize("workload", ALL_BENCHMARKS)
def test_figure89_configurations(workload: str, spec: str) -> None:
    addresses, kinds = stream(workload)
    assert_identical(*pair(lambda: make_cache(spec)), addresses, kinds)


@pytest.mark.parametrize("spec", ["agac", "column", "pagecolor", "skew2", "hac"])
def test_other_l1_organisations(spec: str) -> None:
    addresses, kinds = stream("equake")
    batched, reference = pair(lambda: make_cache(spec))
    assert_identical(batched, reference, addresses, kinds)
    if spec == "column":
        assert batched.l1d.slow_hits > 0


def test_bcache_l2() -> None:
    batched, reference = pair(
        lambda: make_cache("dm"),
        lambda: BCache(BCacheGeometry(256 * 1024, 128, mapping_factor=8, associativity=8)),
    )
    assert_identical(batched, reference, *stream("crafty"))


def test_dm_l2() -> None:
    batched, reference = pair(
        lambda: make_cache("2way"), lambda: DirectMappedCache(8 * 1024, 128)
    )
    assert_identical(batched, reference, *stream("gcc"))
    assert batched.l2.cache.stats.evictions > 0


def tally(level: CacheLevel) -> list[tuple[bool, TimedAccess, int]]:
    """Record ``(is_write, outcome, slow hits added)`` of each access to
    ``level`` from now on."""
    seen: list[tuple[bool, TimedAccess, int]] = []
    access = level.access

    def tallied(address: int, is_write: bool = False) -> TimedAccess:
        before = level.slow_hits
        timed = access(address, is_write)
        seen.append((is_write, timed, level.slow_hits - before))
        return timed

    level.access = tallied  # type: ignore[method-assign]
    return seen


def test_victim_l2_slow_hits_on_demand_and_writeback_refs() -> None:
    addresses, kinds = store_heavy(6_000)
    batched, reference = pair(
        lambda: DirectMappedCache(1024, 32), lambda: VictimBufferCache(4096, 128, 16)
    )
    seen = tally(reference.l2)
    assert_identical(batched, reference, addresses, kinds)
    # Demand refs reach L2 as reads, writebacks as writes: the case
    # bites only if both kinds took slow hits.
    assert any(slow and not is_write for is_write, _, slow in seen)
    assert any(slow and is_write for is_write, _, slow in seen)


def test_relocating_hit_writes_back() -> None:
    # Conflicts across many sets: agac relocates the home occupant on a
    # relocated hit, and sometimes evicts a dirty block to do so.
    addresses, kinds = store_heavy(8_000, rows=300, conflicts=3, stride=16 * 1024)
    batched, reference = pair(lambda: make_cache("agac"))
    seen = tally(reference.l1d)
    assert_identical(batched, reference, addresses, kinds)
    assert any(
        timed.result.hit and timed.result.evicted_dirty for _, timed, _ in seen
    )


def test_store_heavy_writebacks_at_both_levels() -> None:
    addresses, kinds = store_heavy(6_000, seed=11)
    batched, reference = pair(
        lambda: make_cache("mf8_bas8"), lambda: DirectMappedCache(4096, 128)
    )
    assert_identical(batched, reference, addresses, kinds)
    assert batched.l1d.cache.stats.writebacks > 0
    assert batched.l2.cache.stats.writebacks > 0


@pytest.mark.parametrize("spec", ["dm", "4way", "mf8_bas8", "victim16"])
def test_empty_stream(spec: str) -> None:
    result = assert_identical(
        *pair(lambda: make_cache(spec)), array("Q"), array("B")
    )
    assert result.instructions == 0 and result.cycles == 0.0


@pytest.mark.parametrize("spec", ["dm", "4way", "mf8_bas8", "victim16"])
def test_instruction_only_stream(spec: str) -> None:
    addresses, kinds = stream("gzip")
    fetches = array("Q", (a for a, k in zip(addresses, kinds) if k == IFETCH))
    result = assert_identical(
        *pair(lambda: make_cache(spec)), fetches, bytes([IFETCH]) * len(fetches)
    )
    assert result.instructions == INSTRUCTIONS
    assert result.data_stall_cycles == 0.0


@pytest.mark.parametrize("spec", ["dm", "2way", "mf8_bas8", "victim16"])
def test_state_and_stats_carry_over_between_runs(spec: str) -> None:
    addresses, kinds = stream("mcf")
    batched, reference = pair(lambda: make_cache(spec))
    half = len(addresses) // 2
    for part in (slice(0, half), slice(half, None)):
        assert_identical(batched, reference, addresses[part], kinds[part])
    assert batched.stats.instructions == INSTRUCTIONS


@pytest.mark.parametrize("spec", ["dm", "8way", "mf8_bas8", "victim16"])
def test_access_list_and_columns_agree(spec: str) -> None:
    addresses, kinds = stream("twolf")
    trace = [Access(a, AccessType(k)) for a, k in zip(addresses, kinds)]
    from_columns, from_accesses = pair(lambda: make_cache(spec))
    expected = OoOProcessorModel(from_columns).run(addresses, kinds)
    assert OoOProcessorModel(from_accesses).run(trace) == expected
    assert snapshot(from_accesses) == snapshot(from_columns)


def test_hierarchy_run_matches_per_access() -> None:
    addresses, kinds = stream("art")
    trace = [Access(a, AccessType(k)) for a, k in zip(addresses, kinds)]
    batched, reference = pair(lambda: make_cache("victim16"))
    batched.run(trace)
    per_access(reference, addresses, kinds)
    assert snapshot(batched) == snapshot(reference)


def test_shared_l1_cache_is_refused() -> None:
    cache = make_cache("dm")
    hierarchy = MemoryHierarchy(l1i=cache, l1d=cache)
    with pytest.raises(ValueError, match="distinct"):
        hierarchy.replay(*stream("gzip"))


def test_mismatched_columns_are_refused() -> None:
    addresses, kinds = stream("gzip")
    hierarchy = MemoryHierarchy(l1i=make_cache("dm"), l1d=make_cache("dm"))
    with pytest.raises(ValueError, match="length"):
        hierarchy.replay(addresses, kinds[:-1])


def test_address_column_without_kinds_is_refused() -> None:
    addresses, _ = stream("gzip")
    model = OoOProcessorModel(MemoryHierarchy(l1i=make_cache("dm"), l1d=make_cache("dm")))
    with pytest.raises(TypeError, match="kinds column"):
        model.run(addresses)
