"""Direct-mapped cache with a victim buffer (Jouppi).

The paper's main prior-art comparison point (Sections 2.1 and 6.6): a
small fully associative buffer catches blocks recently evicted from a
direct-mapped cache.  A buffer hit swaps the block back into the main
cache and costs one extra cycle when the buffer is probed sequentially
after the main cache — the latency penalty the B-Cache avoids.

The evaluated configuration is 16 entries with 32-byte lines.
"""

from __future__ import annotations

from collections import OrderedDict
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


class VictimBufferCache(Cache):
    """Direct-mapped main cache backed by a small fully associative buffer."""

    #: A buffer hit swaps the block in: one extra cycle.
    has_slow_hits = True

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        victim_entries: int = 16,
        name: str = "",
    ) -> None:
        num_sets = size // line_size
        super().__init__(
            size, line_size, num_sets, name or f"DM-{size // 1024}kB+victim{victim_entries}"
        )
        if victim_entries < 1:
            raise ValueError(f"victim_entries must be >= 1, got {victim_entries}")
        self.victim_entries = victim_entries
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self._tags = [-1] * num_sets
        self._dirty = [False] * num_sets
        # Victim buffer: block -> dirty flag, insertion-ordered (LRU via
        # move-to-end on hit).
        self._buffer: OrderedDict[int, bool] = OrderedDict()

    # ------------------------------------------------------------------
    def _buffer_insert(self, block: int, dirty: bool) -> tuple[int | None, bool]:
        """Insert a block into the buffer; return any evicted (block, dirty)."""
        evicted: tuple[int | None, bool] = (None, False)
        if block in self._buffer:
            self._buffer[block] = self._buffer[block] or dirty
            self._buffer.move_to_end(block)
            return evicted
        if len(self._buffer) >= self.victim_entries:
            old_block, old_dirty = next(iter(self._buffer.items()))
            del self._buffer[old_block]
            evicted = (old_block, old_dirty)
        self._buffer[block] = dirty
        return evicted

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        if self._tags[index] == tag:
            if is_write:
                self._dirty[index] = True
            return AccessResult(hit=True, set_index=index)

        displaced_block = None
        displaced_dirty = False
        if self._tags[index] >= 0:
            displaced_block = (self._tags[index] << self.index_bits) | index
            displaced_dirty = self._dirty[index]

        if block in self._buffer:
            # Victim-buffer hit: swap the block into the main cache.
            buffered_dirty = self._buffer.pop(block)
            self._tags[index] = tag
            self._dirty[index] = buffered_dirty or is_write
            if displaced_block is not None:
                self._buffer_insert(displaced_block, displaced_dirty)
            # Swaps never write anything back to the next level.
            return AccessResult(hit=True, set_index=index, extra_cycles=1)

        # Full miss: refill the main cache, displaced block enters the
        # buffer, and the buffer's LRU block (if any) leaves the system.
        self._tags[index] = tag
        self._dirty[index] = is_write
        evicted = None
        evicted_dirty = False
        if displaced_block is not None:
            out_block, out_dirty = self._buffer_insert(displaced_block, displaced_dirty)
            if out_block is not None:
                evicted = out_block << self.offset_bits
                evicted_dirty = out_dirty
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

        The direct-mapped hit path is inlined; a main-cache miss works
        on the buffer directly: a swap-in is a slow hit, a buffer
        overflow is the eviction (and writeback) a full miss causes.
        """
        if type(self)._access_block is not VictimBufferCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        tags = self._tags
        dirty = self._dirty
        buffer = self._buffer
        victim_entries = self.victim_entries
        index_mask = self._index_mask
        index_bits = self.index_bits
        offset_bits = self.offset_bits
        tag_shift = offset_bits + index_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = slow_hits = 0
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            index = (address >> offset_bits) & index_mask
            tag = address >> tag_shift
            set_accesses[index] += 1
            resident = tags[index]
            is_write = kind == 1
            if is_write:
                writes += 1
            if resident == tag:
                set_hits[index] += 1
                if is_write:
                    dirty[index] = True
                continue
            block = address >> offset_bits
            if block in buffer:
                # Swap-in: the buffer always has room for the displaced
                # block once this one leaves it, so nothing is evicted.
                set_hits[index] += 1
                slow_hits += 1
                buffered_dirty = buffer.pop(block)
                if resident >= 0:
                    buffer[(resident << index_bits) | index] = dirty[index]
                tags[index] = tag
                dirty[index] = buffered_dirty or is_write
                continue
            misses += 1
            set_misses[index] += 1
            if emit is not None:
                emit(position, address, DEMAND)
            if resident >= 0:
                # A block lives in the main cache or in the buffer, never
                # both, so the displaced block is a new buffer entry.
                if len(buffer) >= victim_entries:
                    out_block, out_dirty = buffer.popitem(last=False)
                    evictions += 1
                    if out_dirty:
                        writebacks += 1
                        if emit is not None:
                            emit(position, out_block << offset_bits, WRITEBACK)
                buffer[(resident << index_bits) | index] = dirty[index]
            tags[index] = tag
            dirty[index] = is_write
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
        index = block & self._index_mask
        if self._tags[index] == block >> self.index_bits:
            return True
        return block in self._buffer

    def _flush_state(self) -> None:
        self._tags = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
        self._buffer.clear()
