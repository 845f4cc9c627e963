"""Conventional direct-mapped cache — the paper's baseline.

The baseline of the study is a 16 kB direct-mapped L1 with 32-byte
lines (Section 4.1): 512 sets, a 9-bit index (``OI`` in the paper's
terminology) and an 18-bit tag out of a 32-bit address.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.caches.base import AccessResult, Cache, log2_exact


class DirectMappedCache(Cache):
    """One block per set; the index decoding is fixed."""

    #: The set-associative kernel with one way and no replacement state.
    kernel = "set_associative"

    def __init__(self, size: int, line_size: int = 32, name: str = "") -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"DM-{size // 1024}kB")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self._flush_state()

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
            evicted_dirty = bool(self._dirty[index])
        self._tags[index] = tag
        self._dirty[index] = is_write
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        return (
            self.offset_bits, self.index_bits, 1, self._tags, self._dirty,
            0, 0, None, 0, None, None, None,
        ), 0

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        return self._tags[index] == block >> self.index_bits

    def _flush_state(self) -> None:
        # Per-set resident tag; -1 means invalid.
        self._tags = array("q", [-1]) * self.num_sets
        self._dirty = bytearray(self.num_sets)
