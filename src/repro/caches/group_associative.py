"""Adaptive group-associative cache (AGAC, Peir / Lee / Hsu).

Prior art from Section 7.1: a direct-mapped cache that tracks which
sets are "holes" (underutilised) and relocates would-be victims into
them, reaching the miss rate of a 4-way cache.  Its cost, which the
paper contrasts with the B-Cache: relocated lines take extra cycles to
reach — "the AGAC needs three cycles to access those relocated cache
lines which account for 5.24% of the total cache hits, while the
B-Cache needs one cycle for all cache hits."

Model
-----
* A *set-reference history table* (SHT) tracks the most recently used
  sets; sets absent from the SHT are considered holes.
* An *out-of-position directory* (OPD) maps a block's home set to the
  hole currently holding it, bounded in size like the hardware table.
* On a home-set hit: one-cycle hit.
* On a home miss but OPD hit: multi-cycle (relocated) hit; the block
  is promoted back to its home set, displacing the occupant into a
  hole when one exists.
* On a full miss: the displaced home occupant is relocated into the
  least recently used hole instead of being evicted, when a hole is
  available.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
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


class GroupAssociativeCache(Cache):
    """Adaptive group-associative cache (direct-mapped + hole reuse)."""

    #: A relocated hit takes three cycles: two extra.
    has_slow_hits = True

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        sht_fraction: float = 0.5,
        opd_entries: int | None = None,
        name: str = "",
    ) -> None:
        num_sets = size // line_size
        super().__init__(size, line_size, num_sets, name or f"AGAC-{size // 1024}kB")
        if not 0.0 < sht_fraction < 1.0:
            raise ValueError("sht_fraction must be in (0, 1)")
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        #: Sets considered "recently used"; the rest are hole candidates.
        self.sht_capacity = max(1, int(num_sets * sht_fraction))
        self.opd_capacity = opd_entries if opd_entries is not None else num_sets // 8
        # Physical frames: one block per set; blocks stored as full
        # block addresses since relocation breaks the index mapping.
        self._blocks = [-1] * num_sets
        self._dirty = [False] * num_sets
        # SHT: set index -> None, LRU-ordered (most recent last).
        self._sht: OrderedDict[int, None] = OrderedDict()
        # OPD: block address -> frame currently holding it.
        self._opd: OrderedDict[int, int] = OrderedDict()

    # ------------------------------------------------------------------
    def _touch_sht(self, index: int) -> None:
        if index in self._sht:
            self._sht.move_to_end(index)
        else:
            self._sht[index] = None
            if len(self._sht) > self.sht_capacity:
                self._sht.popitem(last=False)

    def _find_hole(self) -> int | None:
        """A frame whose set is not recently referenced and which does
        not currently hold a relocated block that was recently used."""
        relocated_frames = set(self._opd.values())
        for index in range(self.num_sets):
            if index in self._sht:
                continue
            if index in relocated_frames:
                continue
            return index
        return None

    def _evict_frame(self, frame: int) -> tuple[int | None, bool]:
        block = self._blocks[frame]
        if block < 0:
            return None, False
        self._opd.pop(block, None)
        return block << self.offset_bits, self._dirty[frame]

    def _relocate(self, block: int, dirty: bool) -> tuple[int | None, bool]:
        """Move a displaced block into a hole; evict only without holes."""
        hole = self._find_hole()
        if hole is None:
            return block << self.offset_bits, dirty
        evicted = self._evict_frame(hole)
        self._blocks[hole] = block
        self._dirty[hole] = dirty
        self._opd[block] = hole
        if len(self._opd) > self.opd_capacity:
            old_block, old_frame = self._opd.popitem(last=False)
            # Dropping the directory entry makes the line unreachable:
            # invalidate it, writing dirty data back.  The writeback is
            # accounted directly in the statistics because AccessResult
            # carries at most one eviction per access.
            if self._blocks[old_frame] == old_block:
                if self._dirty[old_frame]:
                    self.stats.writebacks += 1
                    self.stats.evictions += 1
                self._blocks[old_frame] = -1
                self._dirty[old_frame] = False
        return evicted

    # ------------------------------------------------------------------
    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        home = block & self._index_mask
        self._touch_sht(home)

        if self._blocks[home] == block:
            if is_write:
                self._dirty[home] = True
            return AccessResult(hit=True, set_index=home)

        frame = self._opd.get(block)
        if frame is not None and self._blocks[frame] == block:
            # Relocated (multi-cycle) hit: promote back to the home set.
            del self._opd[block]
            promoted_dirty = self._dirty[frame] or is_write
            displaced = self._blocks[home]
            displaced_dirty = self._dirty[home]
            self._blocks[frame] = -1
            self._dirty[frame] = False
            evicted = None
            evicted_dirty = False
            if displaced >= 0:
                evicted, evicted_dirty = self._relocate(displaced, displaced_dirty)
            self._blocks[home] = block
            self._dirty[home] = promoted_dirty
            if evicted == block << self.offset_bits:
                evicted, evicted_dirty = None, False
            return AccessResult(
                hit=True, set_index=home, evicted=evicted,
                evicted_dirty=evicted_dirty, extra_cycles=2,
            )

        # Full miss: fill the home set; relocate the displaced block.
        displaced = self._blocks[home]
        displaced_dirty = self._dirty[home]
        evicted = None
        evicted_dirty = False
        if displaced >= 0:
            evicted, evicted_dirty = self._relocate(displaced, displaced_dirty)
        self._blocks[home] = block
        self._dirty[home] = is_write
        return AccessResult(
            hit=False, set_index=home, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`).

        The home-set hit path is inlined.  A relocated hit and a full
        miss share the rest: the home set's occupant moves to the first
        hole in index order, else it leaves the cache.  The frames the
        OPD points at are kept as a set, updated with every OPD change,
        and the frames that may be holes as a min-heap, so a hole
        search pops the stale entries off its top instead of scanning
        every set.
        """
        if type(self)._access_block is not GroupAssociativeCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        blocks = self._blocks
        dirty = self._dirty
        sht = self._sht
        opd = self._opd
        sht_capacity = self.sht_capacity
        opd_capacity = self.opd_capacity
        num_sets = self.num_sets
        index_mask = self._index_mask
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        # The frames OPD entries point at (no two entries share one).
        relocated = set(opd.values())
        # Every hole is queued; a queued frame may have stopped being one
        # (entered the SHT or the OPD) and is dropped when it surfaces.
        holes = [f for f in range(num_sets) if f not in sht and f not in relocated]
        queued = set(holes)

        def unpin(frame: int) -> None:
            """``frame`` left the SHT or the OPD: it may be a hole now."""
            if frame not in queued:
                queued.add(frame)
                heappush(holes, frame)

        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = slow_hits = 0
        emit = None if next_level is None else next_level.emit
        for position, address, kind in zip(range(n), addresses, kinds):
            block = address >> offset_bits
            home = block & index_mask
            set_accesses[home] += 1
            try:
                sht.move_to_end(home)
            except KeyError:
                sht[home] = None
                if len(sht) > sht_capacity:
                    unpin(sht.popitem(last=False)[0])
            is_write = kind == 1
            if is_write:
                writes += 1
            if blocks[home] == block:
                set_hits[home] += 1
                if is_write:
                    dirty[home] = True
                continue
            frame = opd.get(block)
            if frame is not None and blocks[frame] == block:
                # Relocated hit: promote the block back to its home set.
                set_hits[home] += 1
                slow_hits += 1
                del opd[block]
                relocated.discard(frame)
                unpin(frame)
                home_dirty = dirty[frame] or is_write
                blocks[frame] = -1
                dirty[frame] = False
            else:
                misses += 1
                set_misses[home] += 1
                if emit is not None:
                    emit(position, address, DEMAND)
                home_dirty = is_write
            displaced = blocks[home]
            if displaced >= 0:
                displaced_dirty = dirty[home]
                while holes:
                    hole = holes[0]
                    if hole not in sht and hole not in relocated:
                        break
                    heappop(holes)
                    queued.discard(hole)
                else:
                    hole = -1
                if hole < 0:
                    out_block, out_dirty = displaced, displaced_dirty
                else:
                    out_block = blocks[hole]
                    out_dirty = dirty[hole]
                    if out_block >= 0:
                        stale = opd.pop(out_block, None)
                        if stale is not None:
                            relocated.discard(stale)
                            unpin(stale)
                    stale = opd.get(displaced)
                    if stale is not None:
                        relocated.discard(stale)
                        unpin(stale)
                    blocks[hole] = displaced
                    dirty[hole] = displaced_dirty
                    opd[displaced] = hole
                    relocated.add(hole)
                    if len(opd) > opd_capacity:
                        # The dropped entry's line becomes unreachable:
                        # invalidate it; a dirty one is written back,
                        # outside the next-level stream (see _relocate).
                        old_block, old_frame = opd.popitem(last=False)
                        relocated.discard(old_frame)
                        unpin(old_frame)
                        if blocks[old_frame] == old_block:
                            if dirty[old_frame]:
                                writebacks += 1
                                evictions += 1
                            blocks[old_frame] = -1
                            dirty[old_frame] = False
                if out_block >= 0:
                    evictions += 1
                    if out_dirty:
                        writebacks += 1
                        if emit is not None:
                            emit(position, out_block << offset_bits, WRITEBACK)
            blocks[home] = block
            dirty[home] = home_dirty
        # Each relocated hit costs two extra cycles.
        return self._commit_batch(
            n,
            misses,
            writes,
            evictions,
            writebacks,
            slow_hits=slow_hits,
            slow_hit_cycles=2 * slow_hits,
        )

    def _probe_block(self, block: int) -> bool:
        home = block & self._index_mask
        if self._blocks[home] == block:
            return True
        frame = self._opd.get(block)
        return frame is not None and self._blocks[frame] == block

    def _flush_state(self) -> None:
        self._blocks = [-1] * self.num_sets
        self._dirty = [False] * self.num_sets
        self._sht.clear()
        self._opd.clear()
