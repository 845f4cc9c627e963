"""Direct-mapped cache with a victim buffer (Jouppi).

The paper's main prior-art comparison point (Sections 2.1 and 6.6): a
small fully associative buffer catches blocks recently evicted from a
direct-mapped cache.  A buffer hit swaps the block back into the main
cache and costs one extra cycle when the buffer is probed sequentially
after the main cache — the latency penalty the B-Cache avoids.

The evaluated configuration is 16 entries with 32-byte lines.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.caches.base import AccessResult, Cache, log2_exact


class VictimBufferCache(Cache):
    """Direct-mapped main cache backed by a small fully associative buffer.

    The main cache is the flat ``_tags``/``_dirty`` columns of a
    direct-mapped cache; the buffer is ``victim_entries`` entries of
    ``_buffer_blocks`` (block number, ``-1`` for a free entry),
    ``_buffer_dirty`` and ``_buffer_stamps``, the value of ``_clock``
    when the block entered.  A block lives in the main cache or in the
    buffer, never both; a full buffer drops its oldest entry.
    """

    #: A buffer hit swaps the block in: one extra cycle.
    has_slow_hits = True
    kernel = "victim_buffer"

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
        self._flush_state()

    # ------------------------------------------------------------------
    def _buffer_insert(self, entry: int, block: int, dirty: bool) -> None:
        """Put ``block`` in buffer ``entry`` as the newest entry."""
        self._buffer_blocks[entry] = block
        self._buffer_dirty[entry] = dirty
        self._clock += 1
        self._buffer_stamps[entry] = self._clock

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        tags, dirty = self._tags, self._dirty
        resident = tags[index]
        if resident == tag:
            if is_write:
                dirty[index] = True
            return AccessResult(hit=True, set_index=index)
        displaced = (resident << self.index_bits) | index
        displaced_dirty = bool(dirty[index])
        blocks = self._buffer_blocks
        if block in blocks:
            # Victim-buffer hit: swap the block into the main cache.
            entry = blocks.index(block)
            tags[index] = tag
            dirty[index] = self._buffer_dirty[entry] or is_write
            blocks[entry] = -1
            self._buffer_dirty[entry] = False
            if resident >= 0:
                self._buffer_insert(entry, displaced, displaced_dirty)
            # Swaps never write anything back to the next level.
            return AccessResult(hit=True, set_index=index, extra_cycles=1)

        # Full miss: refill the main cache, displaced block enters the
        # buffer, and the buffer's oldest block (if full) leaves the system.
        tags[index] = tag
        dirty[index] = is_write
        evicted = None
        evicted_dirty = False
        if resident >= 0:
            if -1 in blocks:
                entry = blocks.index(-1)
            else:
                stamps = self._buffer_stamps
                entry = min(range(self.victim_entries), key=stamps.__getitem__)
                evicted = blocks[entry] << self.offset_bits
                evicted_dirty = bool(self._buffer_dirty[entry])
            self._buffer_insert(entry, displaced, displaced_dirty)
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        return (
            self.offset_bits, self.index_bits, self._tags, self._dirty,
            self.victim_entries, self._buffer_blocks, self._buffer_dirty,
            self._buffer_stamps,
        ), self._clock

    def _kernel_done(self, clock: int, counters: list[int], n: int) -> None:
        self._clock = clock

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        if self._tags[index] == block >> self.index_bits:
            return True
        return block in self._buffer_blocks

    def _flush_state(self) -> None:
        self._tags = array("q", [-1]) * self.num_sets
        self._dirty = bytearray(self.num_sets)
        self._buffer_blocks = array("q", [-1]) * self.victim_entries
        self._buffer_dirty = bytearray(self.victim_entries)
        self._buffer_stamps = array("q", [0]) * self.victim_entries
        self._clock = 0
