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

from array import array
from typing import Any

from repro.caches.base import AccessResult, Cache, log2_exact


class ColumnAssociativeCache(Cache):
    """Direct-mapped cache with rehash bits and an alternate index."""

    #: A second-probe hit takes one extra cycle.
    has_slow_hits = True
    kernel = "column_associative"

    def __init__(self, size: int, line_size: int = 32, name: str = "") -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"CA-{size // 1024}kB")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self._flip = 1 << (self.index_bits - 1)
        self._flush_state()

    def _primary_index(self, block: int) -> int:
        return block & self._index_mask

    def _secondary_index(self, block: int) -> int:
        return (block & self._index_mask) ^ self._flip

    def _evict(self, index: int) -> tuple[int | None, bool]:
        block = self._blocks[index]
        if block < 0:
            return None, False
        return block << self.offset_bits, bool(self._dirty[index])

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

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        return (
            self.offset_bits, self.index_bits, self._flip, self._blocks,
            self._dirty, self._rehash,
        ), 0

    def _probe_block(self, block: int) -> bool:
        return (
            self._blocks[self._primary_index(block)] == block
            or self._blocks[self._secondary_index(block)] == block
        )

    def _flush_state(self) -> None:
        # Store whole block addresses: after swaps a block may live at
        # either of its two legal sets, so a bare tag is ambiguous.
        self._blocks = array("q", [-1]) * self.num_sets
        self._dirty = bytearray(self.num_sets)
        self._rehash = bytearray(self.num_sets)
