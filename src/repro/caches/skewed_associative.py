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

from array import array
from typing import Any

from repro.caches.base import AccessResult, Cache, log2_exact


def _rotate_left(value: int, amount: int, width: int) -> int:
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


class SkewedAssociativeCache(Cache):
    """N-way skewed-associative cache with per-way XOR hashing.

    State is kept in flat columns indexed by frame,
    ``way * sets_per_way + index``: ``_blocks`` (``-1`` for an empty
    frame), ``_dirty`` and ``_last_touch``, the value of ``_clock``
    (advanced on every reference) at the frame's last touch.  A miss
    evicts the first empty candidate frame, else the least recently
    touched one, ties going to the lowest way.
    """

    kernel = "skewed_associative"

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
        self._flush_state()

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
        blocks = self._blocks
        frames = [
            way * self.sets_per_way + self.skew_index(block, way)
            for way in range(self.ways)
        ]
        for frame in frames:
            if blocks[frame] == block:
                if is_write:
                    self._dirty[frame] = True
                self._last_touch[frame] = self._clock
                return AccessResult(hit=True, set_index=frame & self._mask)

        # Miss: prefer an empty frame, otherwise evict the least
        # recently touched candidate frame.
        empty = [frame for frame in frames if blocks[frame] < 0]
        frame = empty[0] if empty else min(frames, key=self._last_touch.__getitem__)
        evicted = None
        evicted_dirty = False
        if blocks[frame] >= 0:
            evicted = blocks[frame] << self.offset_bits
            evicted_dirty = bool(self._dirty[frame])
        blocks[frame] = block
        self._dirty[frame] = is_write
        self._last_touch[frame] = self._clock
        return AccessResult(
            hit=False, set_index=frame & self._mask, evicted=evicted,
            evicted_dirty=evicted_dirty,
        )

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        return (
            self.offset_bits, self.index_bits, self.ways, self._blocks,
            self._dirty, self._last_touch,
        ), self._clock

    def _kernel_done(self, clock: int, counters: list[int], n: int) -> None:
        self._clock = clock

    def _probe_block(self, block: int) -> bool:
        return any(
            self._blocks[way * self.sets_per_way + self.skew_index(block, way)] == block
            for way in range(self.ways)
        )

    def _flush_state(self) -> None:
        frames = self.ways * self.sets_per_way
        self._blocks = array("q", [-1]) * frames
        self._dirty = bytearray(frames)
        self._last_touch = array("q", [-1]) * frames
        self._clock = 0
