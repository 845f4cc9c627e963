"""Skewed-associative cache (Seznec).

Prior art from Section 7.1: a 2-way cache where each way is indexed by
a different XOR-based hash of the address, so two blocks conflicting in
one way rarely conflict in the other.  The paper reports it reaches the
miss rate of a same-sized 4-way cache; the B-Cache matches that while
remaining direct-mapped (single array probe, faster access).

Blocks store their full block address because the skewing functions
are not invertible from (way, set, tag) alone in a uniform way.
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


def _rotate_left(value: int, amount: int, width: int) -> int:
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


class SkewedAssociativeCache(Cache):
    """N-way skewed-associative cache with per-way XOR hashing."""

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        name: str = "",
    ) -> None:
        num_blocks = size // line_size
        if num_blocks % ways:
            raise ValueError(f"{size}B/{line_size}B cache cannot be {ways}-way skewed")
        sets_per_way = num_blocks // ways
        super().__init__(
            size, line_size, sets_per_way, name or f"Skew-{size // 1024}kB-{ways}way"
        )
        self.ways = ways
        self.sets_per_way = sets_per_way
        self.index_bits = log2_exact(sets_per_way, "sets per way")
        self._mask = sets_per_way - 1
        self._blocks = [[-1] * sets_per_way for _ in range(ways)]
        self._dirty = [[False] * sets_per_way for _ in range(ways)]
        # Per (way, set) pseudo-time of last touch: a miss evicts the
        # least recently touched candidate frame, ties going to the
        # lowest way.
        self._last_touch = [[-1] * sets_per_way for _ in range(ways)]
        self._clock = 0

    def skew_index(self, block: int, way: int) -> int:
        """Seznec-style skewing.

        Way 0 keeps the conventional index; each further way XORs the
        index with a differently rotated slice of the tag, so blocks
        conflicting in one way scatter in the others.
        """
        a1 = block & self._mask
        if way == 0:
            return a1
        a2 = (block >> self.index_bits) & self._mask
        return a1 ^ _rotate_left(a2, way - 1, self.index_bits)

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        self._clock += 1
        indices = [self.skew_index(block, way) for way in range(self.ways)]
        for way, index in enumerate(indices):
            if self._blocks[way][index] == block:
                if is_write:
                    self._dirty[way][index] = True
                self._last_touch[way][index] = self._clock
                return AccessResult(hit=True, set_index=index)

        # Miss: prefer an empty frame, otherwise evict the least
        # recently touched candidate frame.
        empty = [w for w, i in enumerate(indices) if self._blocks[w][i] < 0]
        if empty:
            way = empty[0]
        else:
            way = min(range(self.ways), key=lambda w: self._last_touch[w][indices[w]])
        index = indices[way]
        evicted = None
        evicted_dirty = False
        if self._blocks[way][index] >= 0:
            evicted = self._blocks[way][index] << self.offset_bits
            evicted_dirty = self._dirty[way][index]
        self._blocks[way][index] = block
        self._dirty[way][index] = is_write
        self._last_touch[way][index] = self._clock
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

        One loop for any number of ways: way 0 is probed first, then
        each further way at its :meth:`skew_index`, while the same scan
        picks the victim :meth:`_access_block` would (the first empty
        frame, otherwise the least recently touched, lowest way first).
        """
        if type(self)._access_block is not SkewedAssociativeCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        blocks = self._blocks
        dirty = self._dirty
        last_touch = self._last_touch
        blocks0 = blocks[0]
        dirty0 = dirty[0]
        touch0 = last_touch[0]
        mask = self._mask
        index_bits = self.index_bits
        offset_bits = self.offset_bits
        # Way w > 0 XORs the index with the tag slice rotated left by
        # (w - 1) bits, as in skew_index.
        skewed_ways = []
        for way in range(1, self.ways):
            rotate = (way - 1) % index_bits
            skewed_ways.append(
                (way, blocks[way], last_touch[way], rotate, index_bits - rotate)
            )
        set_accesses = stats.set_accesses
        set_misses = stats.set_misses
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        clock = self._clock
        misses = writes = evictions = writebacks = 0
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            block = address >> offset_bits
            clock += 1
            is_write = kind == 1
            if is_write:
                writes += 1
            index = block & mask
            if blocks0[index] == block:
                set_accesses[index] += 1
                touch0[index] = clock
                if is_write:
                    dirty0[index] = True
                continue
            slice_bits = (block >> index_bits) & mask
            victim = 0
            victim_index = index
            empty = blocks0[index] < 0
            oldest = touch0[index]
            for way, way_blocks, way_touch, left, right in skewed_ways:
                way_index = index ^ (
                    ((slice_bits << left) | (slice_bits >> right)) & mask
                )
                resident = way_blocks[way_index]
                if resident == block:
                    set_accesses[way_index] += 1
                    way_touch[way_index] = clock
                    if is_write:
                        dirty[way][way_index] = True
                    break
                if not empty:
                    if resident < 0:
                        empty = True
                        victim = way
                        victim_index = way_index
                    elif way_touch[way_index] < oldest:
                        oldest = way_touch[way_index]
                        victim = way
                        victim_index = way_index
            else:
                misses += 1
                set_accesses[victim_index] += 1
                set_misses[victim_index] += 1
                if emit is not None:
                    emit(position, address, DEMAND)
                victim_blocks = blocks[victim]
                victim_dirty = dirty[victim]
                resident = victim_blocks[victim_index]
                if resident >= 0:
                    evictions += 1
                    if victim_dirty[victim_index]:
                        writebacks += 1
                        if emit is not None:
                            emit(position, resident << offset_bits, WRITEBACK)
                victim_blocks[victim_index] = block
                victim_dirty[victim_index] = is_write
                last_touch[victim][victim_index] = clock
        self._clock = clock
        return self._commit_batch(
            n, accesses_before, misses_before, misses, writes, evictions, writebacks
        )

    def _probe_block(self, block: int) -> bool:
        for way in range(self.ways):
            if self._blocks[way][self.skew_index(block, way)] == block:
                return True
        return False

    def _flush_state(self) -> None:
        self._blocks = [[-1] * self.sets_per_way for _ in range(self.ways)]
        self._dirty = [[False] * self.sets_per_way for _ in range(self.ways)]
        self._last_touch = [[-1] * self.sets_per_way for _ in range(self.ways)]
        self._clock = 0
