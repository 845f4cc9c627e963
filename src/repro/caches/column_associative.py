"""Column-associative cache (Agarwal & Pudar).

Prior art discussed in Sections 2.1 and 7.1: a direct-mapped cache with
a *rehash bit* per set and an alternate hash function (flipping the
most significant index bit).  A first-probe miss triggers a second
probe at the alternate location; a second-probe hit swaps the two
blocks so the next reference hits in one cycle.  The cost the paper
highlights: part of the hits take two cycles, and the address
multiplexer sits on the critical path.

Miss-rate-wise it approaches a 2-way cache; the B-Cache beats it while
keeping all hits at one cycle.
"""

from __future__ import annotations

from typing import Sequence

from repro.caches.base import (
    DEMAND,
    WRITEBACK,
    AccessResult,
    Cache,
    NextLevelStream,
    log2_exact,
)
from repro.stats.counters import CacheStats


class ColumnAssociativeCache(Cache):
    """Direct-mapped cache with rehash bits and an alternate index."""

    #: A second-probe hit takes one extra cycle.
    has_slow_hits = True

    def __init__(self, size: int, line_size: int = 32, name: str = "") -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"CA-{size // 1024}kB")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self._flip = 1 << (self.index_bits - 1)
        # Store whole block addresses: after swaps a block may live at
        # either of its two legal sets, so a bare tag is ambiguous.
        self._blocks = [-1] * num_sets
        self._dirty = [False] * num_sets
        self._rehash = [False] * num_sets

    def _primary_index(self, block: int) -> int:
        return block & self._index_mask

    def _secondary_index(self, block: int) -> int:
        return (block & self._index_mask) ^ self._flip

    def _evict(self, index: int) -> tuple[int | None, bool]:
        block = self._blocks[index]
        if block < 0:
            return None, False
        return block << self.offset_bits, self._dirty[index]

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        first = self._primary_index(block)
        second = self._secondary_index(block)

        if self._blocks[first] == block:
            if is_write:
                self._dirty[first] = True
            return AccessResult(hit=True, set_index=first)

        # First probe missed.  If the resident block is itself a
        # rehashed (second-choice) block, replace it immediately: its
        # owner valued this slot less than the incoming first-choice
        # block does (the classic rehash-bit optimisation).
        if self._rehash[first]:
            evicted, evicted_dirty = self._evict(first)
            self._blocks[first] = block
            self._dirty[first] = is_write
            self._rehash[first] = False
            return AccessResult(
                hit=False, set_index=first, evicted=evicted, evicted_dirty=evicted_dirty
            )

        if self._blocks[second] == block:
            # Second-probe hit: swap so the block is first-choice next time.
            if is_write:
                self._dirty[second] = True
            self._blocks[first], self._blocks[second] = (
                self._blocks[second],
                self._blocks[first],
            )
            self._dirty[first], self._dirty[second] = (
                self._dirty[second],
                self._dirty[first],
            )
            self._rehash[first] = False
            self._rehash[second] = self._blocks[second] >= 0
            return AccessResult(hit=True, set_index=first, extra_cycles=1)

        # Full miss: new block settles at its first-choice slot, the
        # displaced first-choice block is rehashed into the alternate
        # slot, whose occupant leaves the cache.
        evicted, evicted_dirty = self._evict(second)
        displaced = self._blocks[first]
        displaced_dirty = self._dirty[first]
        self._blocks[first] = block
        self._dirty[first] = is_write
        self._rehash[first] = False
        self._blocks[second] = displaced
        self._dirty[second] = displaced_dirty
        self._rehash[second] = displaced >= 0
        return AccessResult(
            hit=False, set_index=first, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`).

        The four outcomes of :meth:`_access_block` are inlined: a
        first-probe hit, a rehash-bit replacement, a second-probe swap
        (a slow hit) and a full miss that rehashes the displaced block
        into the alternate slot.  Every outcome resolves at the
        first-choice set.
        """
        if type(self)._access_block is not ColumnAssociativeCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        blocks = self._blocks
        dirty = self._dirty
        rehash = self._rehash
        index_mask = self._index_mask
        flip = self._flip
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = slow_hits = 0
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            block = address >> offset_bits
            first = block & index_mask
            set_accesses[first] += 1
            is_write = kind == 1
            if is_write:
                writes += 1
            if blocks[first] == block:
                set_hits[first] += 1
                if is_write:
                    dirty[first] = True
                continue
            if rehash[first]:
                # Rehash-bit replacement: the first-choice slot holds a
                # rehashed block, which leaves the cache.
                out_slot = first
            else:
                second = first ^ flip
                if blocks[second] == block:
                    # Second-probe hit: swap into the first-choice slot
                    # (whose rehash bit is already clear on this path).
                    set_hits[first] += 1
                    slow_hits += 1
                    displaced = blocks[first]
                    blocks[first] = block
                    blocks[second] = displaced
                    dirty[first], dirty[second] = (
                        is_write or dirty[second],
                        dirty[first],
                    )
                    rehash[second] = displaced >= 0
                    continue
                # Full miss: the alternate slot's occupant leaves, the
                # displaced first-choice block is rehashed into it.
                out_slot = second
            misses += 1
            set_misses[first] += 1
            if emit is not None:
                emit(position, address, DEMAND)
            out_block = blocks[out_slot]
            if out_block >= 0:
                evictions += 1
                if dirty[out_slot]:
                    writebacks += 1
                    if emit is not None:
                        emit(position, out_block << offset_bits, WRITEBACK)
            if out_slot != first:
                displaced = blocks[first]
                blocks[out_slot] = displaced
                dirty[out_slot] = dirty[first]
                rehash[out_slot] = displaced >= 0
            blocks[first] = block
            dirty[first] = is_write
            rehash[first] = False
        # Each slow hit costs one extra cycle.
        return self._commit_batch(
            n,
            None,
            None,
            misses,
            writes,
            evictions,
            writebacks,
            slow_hits=slow_hits,
            slow_hit_cycles=slow_hits,
        )

    def _probe_block(self, block: int) -> bool:
        return (
            self._blocks[self._primary_index(block)] == block
            or self._blocks[self._secondary_index(block)] == block
        )

    def _flush_state(self) -> None:
        self._blocks = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
        self._rehash = [False] * self.num_sets
