"""Conventional N-way set-associative cache.

The paper compares the baseline against 2-, 4-, 8- and 32-way caches of
the same size with LRU replacement (Figures 4, 5, 8, 9, 12).  An N-way
cache shortens the index by log2(N) bits relative to the direct-mapped
baseline and chooses a victim among N blocks per set.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.caches.base import AccessResult, Cache, log2_exact
from repro.replacement import Replacement

#: The compiled kernel's encoding of :attr:`SetAssociativeCache.way_prediction`.
_PREDICTIONS = {"": 0, "pam": 1, "psa": 2}


class SetAssociativeCache(Cache):
    """N-way set-associative cache with a pluggable replacement policy.

    State is kept in flat columns indexed by line, ``set * ways + way``:
    ``_tags`` (``-1`` for an invalid line) and ``_dirty``, beside the
    policy's columns in ``_replacement`` (a set is a replacement
    domain).
    """

    kernel = "set_associative"
    #: The way prediction the compiled kernel applies in place of
    #: ``_access_block``: "" none, "pam" partial address matching, "psa"
    #: predictive sequential.
    way_prediction = ""

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        num_blocks = size // line_size
        if num_blocks % ways:
            raise ValueError(f"{size}B/{line_size}B cache cannot be {ways}-way")
        num_sets = num_blocks // ways
        super().__init__(
            size, line_size, num_sets, name or f"{size // 1024}kB-{ways}way"
        )
        self.ways = ways
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self.policy_name = policy
        self._seed = seed
        self._flush_state()

    def recency_order(self, index: int) -> tuple[int, ...]:
        """Set ``index``'s ways under exact LRU, most recently used first."""
        return self._replacement.order(index)

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        base = index * self.ways
        tags = self._tags
        try:
            line = tags.index(tag, base, base + self.ways)
        except ValueError:
            line = base + self._replacement.victim(index)
        else:
            self._replacement.touch(index, line - base)
            if is_write:
                self._dirty[line] = True
            return AccessResult(hit=True, set_index=index)
        evicted = None
        evicted_dirty = False
        if tags[line] >= 0:
            evicted = ((tags[line] << self.index_bits) | index) << self.offset_bits
            evicted_dirty = bool(self._dirty[line])
        tags[line] = tag
        self._dirty[line] = is_write
        self._replacement.touch(index, line - base)
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        return (
            self.offset_bits, self.index_bits, self.ways, self._tags,
            self._dirty, _PREDICTIONS[self.way_prediction],
            getattr(self, "_pad_mask", 0), getattr(self, "_mru", None),
            *self._replacement.kernel_args(),
        ), self._replacement.clock

    def _kernel_done(self, clock: int, counters: list[int], n: int) -> None:
        self._replacement.clock = clock

    def _probe_block(self, block: int) -> bool:
        base = (block & self._index_mask) * self.ways
        return block >> self.index_bits in self._tags[base:base + self.ways]

    def _flush_state(self) -> None:
        lines = self.num_sets * self.ways
        self._tags = array("q", [-1]) * lines
        self._dirty = bytearray(lines)
        self._replacement = Replacement(
            self.policy_name, self.ways, self.num_sets, seed=self._seed
        )
