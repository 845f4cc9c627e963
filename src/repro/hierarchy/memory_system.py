"""Two-level memory hierarchy matching the paper's Table 4.

* L1: separate 16 kB instruction and data caches (any organisation),
  1-cycle hits, 32 B lines.
* L2: unified 256 kB 4-way LRU, 128 B lines, 6-cycle hits.
* Main memory: infinite, 100-cycle access.

The hierarchy is trace-driven: each L1 miss probes the L2; each L2
miss pays the memory latency.  Dirty evictions are written back to the
next level (writebacks update L2/memory state but are not charged to
the access latency, modelling buffered write-backs).

:meth:`MemoryHierarchy.replay` runs a combined ``(addresses, kinds)``
column as batches: L1I and L1D each replay their side with a
:class:`~repro.caches.base.NextLevelStream` output, the two outputs
merge by trace position (a demand before its writeback) into one L2
batch, and latency comes from counts — it adds up per level, and slow
hits cost the deltas of each cache's ``slow_hit_cycles`` counter.  The
per-access :meth:`~MemoryHierarchy.fetch_instruction` /
:meth:`~MemoryHierarchy.access_data` API drives the same model one
reference at a time; the event-driven core uses it, and it is the
oracle the batched replay is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, groupby
from typing import Iterable, NamedTuple, Sequence

from repro.caches.base import DEMAND, Cache, NextLevelStream
from repro.caches.set_associative import SetAssociativeCache
from repro.hierarchy.levels import CacheLevel
from repro.trace.access import Access, AccessType, access_columns

_IFETCH = int(AccessType.IFETCH)
#: ``bytes.translate`` tables: 1 where a kind byte is (is not) an ifetch.
_FETCH_MASK = bytes(int(kind == _IFETCH) for kind in range(256))
_DATA_MASK = bytes(int(kind != _IFETCH) for kind in range(256))
#: Where an L2 reference comes from; only demand misses are charged.
_FETCH_MISS, _DATA_MISS, _WRITEBACK = range(3)


@dataclass(slots=True)
class HierarchyStats:
    """Access/latency accounting over a whole trace."""

    instructions: int = 0
    ifetches: int = 0
    data_accesses: int = 0
    l1i_misses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0
    total_latency: int = 0

    @property
    def l1i_miss_rate(self) -> float:
        """Instruction-cache misses per instruction fetch."""
        return self.l1i_misses / self.ifetches if self.ifetches else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        """Data-cache misses per data reference."""
        return self.l1d_misses / self.data_accesses if self.data_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L2 access (demand plus writeback traffic)."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0


class ReplayLatency(NamedTuple):
    """Per-side reference counts and summed latencies of one replay."""

    ifetches: int
    ifetch_cycles: int
    data_accesses: int
    data_cycles: int


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over main memory."""

    def __init__(
        self,
        l1i: Cache,
        l1d: Cache,
        l2: Cache | None = None,
        l1_hit_latency: int = 1,
        l2_hit_latency: int = 6,
        memory_latency: int = 100,
    ) -> None:
        if l2 is None:
            l2 = SetAssociativeCache(
                256 * 1024, line_size=128, ways=4, policy="lru", name="L2-256kB-4way"
            )
        self.l1i = CacheLevel(l1i, l1_hit_latency)
        self.l1d = CacheLevel(l1d, l1_hit_latency)
        self.l2 = CacheLevel(l2, l2_hit_latency)
        self.memory_latency = memory_latency
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    def _access_l2(self, address: int, is_write: bool) -> int:
        """Probe L2 (and memory on miss); returns cycles below L1."""
        self.stats.l2_accesses += 1
        timed = self.l2.access(address, is_write)
        latency = timed.latency
        if not timed.result.hit:
            self.stats.l2_misses += 1
            self.stats.memory_accesses += 1
            latency += self.memory_latency
        # L2's dirty victims go to memory; no extra latency charged
        # (write buffers), but the traffic is counted for energy.
        if timed.result.evicted is not None and timed.result.evicted_dirty:
            self.stats.memory_accesses += 1
        return latency

    def _access_l1(self, level: CacheLevel, address: int, is_write: bool) -> int:
        timed = level.access(address, is_write)
        latency = timed.latency
        if not timed.result.hit:
            latency += self._access_l2(address, False)
        if timed.result.evicted is not None and timed.result.evicted_dirty:
            # Write the dirty victim back into L2 (state only).
            self.stats.l2_accesses += 1
            writeback = self.l2.access(timed.result.evicted, True)
            if not writeback.result.hit:
                self.stats.l2_misses += 1
                self.stats.memory_accesses += 1
            if writeback.result.evicted is not None and writeback.result.evicted_dirty:
                self.stats.memory_accesses += 1
        return latency

    # ------------------------------------------------------------------
    def fetch_instruction(self, address: int) -> int:
        """Instruction fetch; returns total cycles to first use."""
        self.stats.ifetches += 1
        self.stats.instructions += 1
        latency = self._access_l1(self.l1i, address, False)
        self.stats.total_latency += latency
        return latency

    def access_data(self, address: int, is_write: bool = False) -> int:
        """Data reference; returns total cycles to completion."""
        self.stats.data_accesses += 1
        latency = self._access_l1(self.l1d, address, is_write)
        self.stats.total_latency += latency
        return latency

    def run(self, trace: Iterable[Access]) -> HierarchyStats:
        """Run a combined trace (ifetches + data references)."""
        self.replay(*access_columns(trace))
        return self.stats

    def replay(self, addresses: Sequence[int], kinds: Sequence[int]) -> ReplayLatency:
        """Run a combined column as batches (see the module docstring).

        ``kinds`` uses the :class:`~repro.trace.access.AccessType`
        encoding.  Statistics, slow hits and latencies are bit-identical
        to :meth:`fetch_instruction`/:meth:`access_data` per reference.
        """
        l1i, l1d, l2 = self.l1i, self.l1d, self.l2
        if l1i.cache is l1d.cache:
            raise ValueError("a batched replay needs distinct L1I and L1D caches")
        kind_bytes = bytes(kinds)
        if len(kind_bytes) != len(addresses):
            raise ValueError(
                f"kinds length {len(kind_bytes)} does not match "
                f"addresses length {len(addresses)}"
            )
        fetch_mask = kind_bytes.translate(_FETCH_MASK)
        data_mask = kind_bytes.translate(_DATA_MASK)
        positions = range(len(addresses))
        fetch_positions = list(compress(positions, fetch_mask))
        data_positions = list(compress(positions, data_mask))
        fetch_out = NextLevelStream()
        data_out = NextLevelStream()
        fetch_slow_cycles = l1i.replay(
            list(compress(addresses, fetch_mask)), None, fetch_out
        )
        data_slow_cycles = l1d.replay(
            list(compress(addresses, data_mask)),
            bytes(compress(kind_bytes, data_mask)),
            data_out,
        )

        # One L2 stream in trace order: a demand precedes its writeback.
        merged = sorted(
            (2 * side[position] + kind, address, kind,
             source if kind == DEMAND else _WRITEBACK)
            for side, out, source in (
                (fetch_positions, fetch_out, _FETCH_MISS),
                (data_positions, data_out, _DATA_MISS),
            )
            for position, address, kind in zip(out.positions, out.addresses, out.kinds)
        )
        l2_addresses = [event[1] for event in merged]
        l2_kinds = [event[2] for event in merged]
        sources = [event[3] for event in merged]
        l2_misses = [0, 0, 0]
        l2_slow_cycles = [0, 0, 0]
        memory_accesses = 0
        for start, end in self._l2_batches(sources):
            memory_out = NextLevelStream()
            l2_slow_cycles[sources[start]] += l2.replay(
                l2_addresses[start:end], l2_kinds[start:end], memory_out
            )
            memory_accesses += len(memory_out)
            for position, kind in zip(memory_out.positions, memory_out.kinds):
                if kind == DEMAND:
                    l2_misses[sources[start + position]] += 1

        def cycles(level: CacheLevel, refs: int, slow_cycles: int,
                   out: NextLevelStream, source: int) -> int:
            return (
                refs * level.hit_latency
                + slow_cycles
                + out.kinds.count(DEMAND) * l2.hit_latency
                + l2_slow_cycles[source]
                + l2_misses[source] * self.memory_latency
            )

        latency = ReplayLatency(
            ifetches=len(fetch_positions),
            ifetch_cycles=cycles(
                l1i, len(fetch_positions), fetch_slow_cycles, fetch_out, _FETCH_MISS
            ),
            data_accesses=len(data_positions),
            data_cycles=cycles(
                l1d, len(data_positions), data_slow_cycles, data_out, _DATA_MISS
            ),
        )
        stats = self.stats
        stats.instructions += latency.ifetches
        stats.ifetches += latency.ifetches
        stats.data_accesses += latency.data_accesses
        stats.l2_accesses += len(merged)
        stats.l2_misses += sum(l2_misses)
        stats.memory_accesses += memory_accesses
        stats.total_latency += latency.ifetch_cycles + latency.data_cycles
        self._sync_miss_counts()
        return latency

    def _l2_batches(self, sources: list[int]) -> list[tuple[int, int]]:
        """Spans of the L2 stream to replay as one batch each.

        The whole stream, unless L2 has a slow path: only demand
        references are charged its extra cycles, so each run of
        references from one source is its own batch and the slow-hit
        cycles of a batch belong to that source.
        """
        if not self.l2.cache.has_slow_hits:
            return [(0, len(sources))] if sources else []
        bounds = list(accumulate((len(list(run)) for _, run in groupby(sources)), initial=0))
        return list(zip(bounds, bounds[1:]))

    def _sync_miss_counts(self) -> None:
        self.stats.l1i_misses = self.l1i.cache.stats.misses
        self.stats.l1d_misses = self.l1d.cache.stats.misses

    def flush(self) -> None:
        """Invalidate every level and reset the hierarchy statistics."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.stats = HierarchyStats()
