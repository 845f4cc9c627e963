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

from repro.caches.base import AccessResult, Cache, log2_exact


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

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        if self._tags[index] == block >> self.index_bits:
            return True
        return block in self._buffer

    def _flush_state(self) -> None:
        self._tags = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
        self._buffer.clear()
