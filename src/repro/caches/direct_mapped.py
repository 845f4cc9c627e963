"""Conventional direct-mapped cache — the paper's baseline.

The baseline of the study is a 16 kB direct-mapped L1 with 32-byte
lines (Section 4.1): 512 sets, a 9-bit index (``OI`` in the paper's
terminology) and an 18-bit tag out of a 32-bit address.
"""

from __future__ import annotations

from typing import Sequence

from repro.caches import columnar
from repro.caches.base import (
    DEMAND,
    WRITEBACK,
    AccessResult,
    Cache,
    NextLevelStream,
    log2_exact,
)
from repro.stats.counters import CacheStats


class DirectMappedCache(Cache):
    """One block per set; the index decoding is fixed."""

    def __init__(self, size: int, line_size: int = 32, name: str = "") -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"DM-{size // 1024}kB")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        # Per-set resident tag; -1 means invalid.
        self._tags = [-1] * num_sets
        self._dirty = [False] * num_sets

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        if self._tags[index] == tag:
            if is_write:
                self._dirty[index] = True
            return AccessResult(hit=True, set_index=index)
        evicted = None
        evicted_dirty = False
        if self._tags[index] >= 0:
            evicted = ((self._tags[index] << self.index_bits) | index) << self.offset_bits
            evicted_dirty = self._dirty[index]
        self._tags[index] = tag
        self._dirty[index] = is_write
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`).

        A ``next_level`` stream always takes the stdlib loop, which
        emits on its miss path; the vectorised kernel has no output.
        """
        if type(self)._access_block is not DirectMappedCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        if next_level is None and columnar.dm_batch(self, addresses, kinds):
            self.last_kernel = "numpy"
            return self.stats
        stats = self.stats
        tags = self._tags
        dirty = self._dirty
        index_mask = self._index_mask
        offset_bits = self.offset_bits
        tag_shift = offset_bits + self.index_bits
        set_accesses = stats.set_accesses
        set_misses = stats.set_misses
        # Hits dominate, so the hot loop only bumps the per-set access
        # and miss counters; _commit_batch reconstructs per-set hits.
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = 0
        index_bits = self.index_bits
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            index = (address >> offset_bits) & index_mask
            tag = address >> tag_shift
            set_accesses[index] += 1
            resident = tags[index]
            if resident == tag:
                if kind == 1:
                    writes += 1
                    dirty[index] = True
            else:
                misses += 1
                set_misses[index] += 1
                if emit is not None:
                    emit(position, address, DEMAND)
                if resident >= 0:
                    evictions += 1
                    if dirty[index]:
                        writebacks += 1
                        if emit is not None:
                            emit(
                                position,
                                ((resident << index_bits) | index) << offset_bits,
                                WRITEBACK,
                            )
                tags[index] = tag
                if kind == 1:
                    writes += 1
                    dirty[index] = True
                else:
                    dirty[index] = False
        return self._commit_batch(
            n, accesses_before, misses_before, misses, writes, evictions, writebacks
        )

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        return self._tags[index] == block >> self.index_bits

    def _flush_state(self) -> None:
        self._tags = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
