"""OS page-colouring with a Cache Miss Lookaside buffer — Section 7.1.

The first prior-art family the paper discusses (Bershad et al. [7]):
the operating system detects conflict misses with a **Cache Miss
Lookaside (CML) buffer** — a small table counting misses per page —
and dynamically **recolours** pages that miss heavily, i.e. remaps
them to a different cache-colour (the index bits above the page
offset).  The paper's summary: "their technique enables a direct-mapped
cache to perform nearly as well as a two-way set associative cache",
against the B-Cache's 4-way-class reductions in pure hardware.

Model
-----
The cache is direct-mapped, but the index's colour bits come from a
per-page colour table rather than from the address, which is exactly
what physical page placement achieves.  Stored blocks keep their full
block address (recolouring changes where a page's blocks index).  The
CML buffer counts misses per virtual page; crossing ``threshold``
triggers a recolour to the currently least-missed colour, invalidating
the page's resident blocks (the OS copy cost is tracked as
``recolored_pages``).
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


class PageColoringCache(Cache):
    """Direct-mapped cache under OS dynamic page recolouring."""

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        page_size: int = 4096,
        cml_entries: int = 64,
        threshold: int = 32,
        cooldown: int = 512,
        max_recolors_per_page: int = 4,
        name: str = "",
    ) -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"PageColor-{size // 1024}kB")
        if page_size % line_size:
            raise ValueError("page_size must be a multiple of line_size")
        if size % page_size:
            raise ValueError("cache size must be a multiple of page_size")
        self.page_size = page_size
        self.page_bits = log2_exact(page_size, "page_size")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self.num_colors = size // page_size
        self.color_bits = log2_exact(self.num_colors, "number of colors")
        # Blocks-per-page worth of low index bits come from the page
        # offset; the top color_bits of the index are programmable.
        self._page_index_bits = self.index_bits - self.color_bits
        self._page_index_mask = (1 << self._page_index_bits) - 1
        self.cml_entries = cml_entries
        self.threshold = threshold
        #: OS damping: minimum misses between successive recolours and a
        #: lifetime recolour cap per page, preventing remap storms when
        #: misses are capacity-driven (recolouring cannot fix those).
        self.cooldown = cooldown
        self.max_recolors_per_page = max_recolors_per_page
        self._miss_counter = 0
        self._last_recolor_at = -(10**9)
        self._page_recolors: dict[int, int] = {}
        self._blocks = [-1] * num_sets
        self._dirty = [False] * num_sets
        # page -> assigned color (default: the address's own bits).
        self._colors: dict[int, int] = {}
        # CML buffer: page -> miss count (bounded, LRU).
        self._cml: OrderedDict[int, int] = OrderedDict()
        # Per-color conflict pressure, for choosing recolour targets.
        self._color_pressure = [0] * self.num_colors
        self.recolored_pages = 0

    # ------------------------------------------------------------------
    def _page_of_block(self, block: int) -> int:
        return block >> (self.page_bits - self.offset_bits)

    def _default_color(self, page: int) -> int:
        return page & (self.num_colors - 1)

    def _index_of(self, block: int) -> int:
        page = self._page_of_block(block)
        color = self._colors.get(page)
        if color is None:
            color = self._default_color(page)
        return (color << self._page_index_bits) | (block & self._page_index_mask)

    def _record_miss(self, block: int) -> None:
        self._miss_counter += 1
        page = self._page_of_block(block)
        color = self._colors.get(page, self._default_color(page))
        self._color_pressure[color] += 1
        count = self._cml.get(page, 0) + 1
        self._cml[page] = count
        self._cml.move_to_end(page)
        if len(self._cml) > self.cml_entries:
            self._cml.popitem(last=False)
        if (
            count >= self.threshold
            and self._miss_counter - self._last_recolor_at >= self.cooldown
            and self._page_recolors.get(page, 0) < self.max_recolors_per_page
        ):
            self._recolor(page)

    def _recolor(self, page: int) -> None:
        """OS policy: move the page to the least-pressured colour."""
        current = self._colors.get(page, self._default_color(page))
        target = min(range(self.num_colors), key=lambda c: self._color_pressure[c])
        self._cml[page] = 0
        self._last_recolor_at = self._miss_counter
        self._page_recolors[page] = self._page_recolors.get(page, 0) + 1
        # Age the pressure history so old hot spots do not pin the
        # colour choice forever.
        self._color_pressure = [p // 2 for p in self._color_pressure]
        if target == current:
            return
        # Invalidate the page's resident blocks (the OS copies the page
        # to a new frame; cached lines of the old frame die).
        low = page << (self.page_bits - self.offset_bits)
        high = low + (self.page_size // self.line_size)
        for index in range(self.num_sets):
            if low <= self._blocks[index] < high:
                self._blocks[index] = -1
                self._dirty[index] = False
        self._colors[page] = target
        self.recolored_pages += 1

    # ------------------------------------------------------------------
    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = self._index_of(block)
        if self._blocks[index] == block:
            if is_write:
                self._dirty[index] = True
            return AccessResult(hit=True, set_index=index)
        # Record the miss first: it may recolour the page, which both
        # invalidates the page's stale lines and moves its index — the
        # fill below must land at the *new* location.
        self._record_miss(block)
        index = self._index_of(block)
        evicted = None
        evicted_dirty = False
        if self._blocks[index] >= 0:
            evicted = self._blocks[index] << self.offset_bits
            evicted_dirty = self._dirty[index]
        self._blocks[index] = block
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

        The colour lookup and the direct-mapped hit path are inlined; a
        miss goes through :meth:`_record_miss`, which may recolour the
        page (rare), and then fills the page's possibly new location.
        """
        if type(self)._access_block is not PageColoringCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        blocks = self._blocks
        dirty = self._dirty
        colors = self._colors
        record_miss = self._record_miss
        color_mask = self.num_colors - 1
        page_shift = self.page_bits - self.offset_bits
        page_index_bits = self._page_index_bits
        page_index_mask = self._page_index_mask
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = 0
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            block = address >> offset_bits
            page = block >> page_shift
            line = block & page_index_mask
            index = (colors.get(page, page & color_mask) << page_index_bits) | line
            is_write = kind == 1
            if is_write:
                writes += 1
            if blocks[index] == block:
                set_accesses[index] += 1
                set_hits[index] += 1
                if is_write:
                    dirty[index] = True
                continue
            record_miss(block)
            index = (colors.get(page, page & color_mask) << page_index_bits) | line
            set_accesses[index] += 1
            set_misses[index] += 1
            misses += 1
            if emit is not None:
                emit(position, address, DEMAND)
            resident = blocks[index]
            if resident >= 0:
                evictions += 1
                if dirty[index]:
                    writebacks += 1
                    if emit is not None:
                        emit(position, resident << offset_bits, WRITEBACK)
            blocks[index] = block
            dirty[index] = is_write
        return self._commit_batch(n, misses, writes, evictions, writebacks)

    def _probe_block(self, block: int) -> bool:
        return self._blocks[self._index_of(block)] == block

    def _flush_state(self) -> None:
        self._blocks = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
        self._colors.clear()
        self._cml.clear()
        self._color_pressure = [0] * self.num_colors
        self.recolored_pages = 0
        self._miss_counter = 0
        self._last_recolor_at = -(10**9)
        self._page_recolors.clear()
