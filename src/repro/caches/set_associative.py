"""Conventional N-way set-associative cache.

The paper compares the baseline against 2-, 4-, 8- and 32-way caches of
the same size with LRU replacement (Figures 4, 5, 8, 9, 12).  An N-way
cache shortens the index by log2(N) bits relative to the direct-mapped
baseline and chooses a victim among N blocks per set.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.caches import columnar
from repro.caches.base import (
    DEMAND,
    WRITEBACK,
    AccessResult,
    Cache,
    NextLevelStream,
    log2_exact,
)
from repro.replacement import ReplacementPolicy, make_policy
from repro.replacement.lru import LRUPolicy
from repro.stats.counters import CacheStats


class SetAssociativeCache(Cache):
    """N-way set-associative cache with a pluggable replacement policy."""

    #: The way prediction the exact-LRU batch kernel applies in place of
    #: ``_access_block``: "" none, "pam" partial address matching, "psa"
    #: predictive sequential.  Declared by the class that defines the
    #: ``_access_block`` it stands for (see :meth:`_batch_trace`).
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
        self._tags: list[list[int]] = [[-1] * ways for _ in range(num_sets)]
        self._dirty: list[list[bool]] = [[False] * ways for _ in range(num_sets)]
        self._policies: list[ReplacementPolicy] = [
            make_policy(policy, ways, seed=seed + i) for i in range(num_sets)
        ]

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        tags = self._tags[index]
        policy = self._policies[index]
        for way in range(self.ways):
            if tags[way] == tag:
                policy.touch(way)
                if is_write:
                    self._dirty[index][way] = True
                return AccessResult(hit=True, set_index=index)
        way = policy.victim()
        evicted = None
        evicted_dirty = False
        if tags[way] >= 0:
            evicted = ((tags[way] << self.index_bits) | index) << self.offset_bits
            evicted_dirty = self._dirty[index][way]
        tags[way] = tag
        self._dirty[index][way] = is_write
        policy.touch(way)
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

        The exact-LRU loops fill a ``next_level`` stream on their miss
        path, where the recency stamp already equals the position.  A
        way-predicting subclass misses exactly like its LRU base class
        and differs only in which hits are slow, so one more exact-LRU
        loop applies its per-hit rule (see :attr:`way_prediction`).
        """
        # The class that defines _access_block names the way prediction
        # this kernel models in its place; a subclass that overrides
        # _access_block without naming one gets the generic kernel.
        owner = next(c for c in type(self).__mro__ if "_access_block" in vars(c))
        prediction = vars(owner).get("way_prediction")
        lru_fast = all(type(p) is LRUPolicy for p in self._policies)
        if prediction is None or (
            not lru_fast and (prediction or next_level is not None)
        ):
            # Only the exact-LRU loops carry a position stamp to emit
            # and apply a way prediction's slow-hit rule.
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        tags_by_set = self._tags
        dirty_by_set = self._dirty
        policies = self._policies
        index_mask = self._index_mask
        index_bits = self.index_bits
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        num_sets = self.num_sets
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        ways = self.ways
        num_blocks = self.num_blocks
        # Hits dominate: the hot loop only bumps per-set misses; per-set
        # hits are reconstructed from the deltas afterwards (final
        # statistics stay bit-identical to per-access replay).
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        # Column preparation: the address math vectorises even though
        # the replacement-policy state is inherently sequential.  The
        # stdlib fallback builds the same column with a comprehension.
        columns = columnar.block_columns(
            addresses, offset_bits, index_mask, num_sets
        )
        emit = next_level.emit if next_level is not None else None
        hit_way_counts: list[int] | None = None
        # The sets this batch references: only their state is flattened
        # and written back, which keeps a short batch on a large cache
        # (an L2 replay) from paying for every set.
        sets: Iterable[int] = range(num_sets)
        if columns is not None:
            block_column, counts = columns
            sets = columnar.add_set_counts(set_accesses, counts)
        else:
            block_column = [a >> offset_bits for a in addresses]
            if n < num_blocks:
                sets = {block & index_mask for block in block_column}
            if lru_fast and not prediction:
                # The LRU loop below counts hits per way slot; together
                # with the per-set miss counts that recovers per-set
                # accesses without a separate whole-column masking pass
                # (which costs ~25% of the stdlib kernel).
                hit_way_counts = [0] * num_blocks
            else:
                for set_index, count in Counter(
                    b & index_mask for b in block_column
                ).items():
                    set_accesses[set_index] += count
        # Flattened state, indexed by global way id ``set * ways + way``:
        # one {block: global way} map resolves a reference with a single
        # hash probe, so the hit path never derives index or tag at all.
        lookup: dict[int, int] = {}
        resident_blocks = [-1] * num_blocks
        dirty_flat = [False] * num_blocks
        for index in sets:
            base = index * ways
            row_tags = tags_by_set[index]
            row_dirty = dirty_by_set[index]
            for way in range(ways):
                resident_tag = row_tags[way]
                if resident_tag >= 0:
                    resident = (resident_tag << index_bits) | index
                    lookup[resident] = base + way
                    resident_blocks[base + way] = resident
                dirty_flat[base + way] = row_dirty[way]
        # Exact LRU is the common case; its touch() is pure recency
        # maintenance with no RNG, so it runs on a flat timestamp
        # column: a hit is one list store, the victim scan (min of N)
        # only runs on misses, and the policies' recency lists are
        # rebuilt bit-identically from the stamps after the loop.
        ts_flat: list[int] | None = None
        if lru_fast:
            ts_flat = [0] * num_blocks
            for index in sets:
                base = index * ways
                for position, way in enumerate(policies[index]._order):
                    ts_flat[base + way] = -position
        stamp = 0
        misses = writes = evictions = writebacks = 0
        slow_hits = slow_hit_cycles = 0
        if ts_flat is not None and hit_way_counts is not None:
            # Same loop as below plus the one-store hit count; kept as
            # a separate variant so the numpy-assisted path (whose
            # per-set counts already came from bincount) pays nothing.
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    hit_way_counts[way] += 1
                    stamp += 1
                    ts_flat[way] = stamp
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    base = index * ways
                    segment = ts_flat[base:base + ways]
                    way = base + segment.index(min(segment))
                    stamp += 1
                    ts_flat[way] = stamp
                    if emit is not None:
                        emit(stamp - 1, addresses[stamp - 1], DEMAND)
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                            if emit is not None:
                                emit(stamp - 1, resident << offset_bits, WRITEBACK)
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        elif ts_flat is not None and prediction:
            # psa: the predicted way is ``_mru[set]``, kept in place; a
            # hit elsewhere pays its position in the probe order
            # [predicted] + the other ways in way order.  pam: a hit is
            # fast only if no other valid way shares its partial tag,
            # the PAD field of the block address above the index; the
            # field is kept per way (-1 for an invalid way).
            mru: list[int] | None = (
                getattr(self, "_mru") if prediction == "psa" else None
            )
            pad_field = (
                0 if mru is not None else getattr(self, "_pad_mask") << index_bits
            )
            pad_flat = [
                resident & pad_field if resident >= 0 else -1
                for resident in resident_blocks
            ]
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    stamp += 1
                    ts_flat[way] = stamp
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                    if mru is not None:
                        index = way // ways
                        hit_way = way - index * ways
                        predicted = mru[index]
                        if hit_way != predicted:
                            mru[index] = hit_way
                            slow_hits += 1
                            slow_hit_cycles += (
                                hit_way + 1 if hit_way < predicted else hit_way
                            )
                    else:
                        base = way - way % ways
                        if pad_flat[base:base + ways].count(block & pad_field) > 1:
                            slow_hits += 1
                            slow_hit_cycles += 1
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    base = index * ways
                    segment = ts_flat[base:base + ways]
                    way = base + segment.index(min(segment))
                    stamp += 1
                    ts_flat[way] = stamp
                    if mru is not None:
                        mru[index] = way - base
                    pad_flat[way] = block & pad_field
                    if emit is not None:
                        emit(stamp - 1, addresses[stamp - 1], DEMAND)
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                            if emit is not None:
                                emit(stamp - 1, resident << offset_bits, WRITEBACK)
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        elif ts_flat is not None:
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    stamp += 1
                    ts_flat[way] = stamp
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    base = index * ways
                    segment = ts_flat[base:base + ways]
                    way = base + segment.index(min(segment))
                    stamp += 1
                    ts_flat[way] = stamp
                    if emit is not None:
                        emit(stamp - 1, addresses[stamp - 1], DEMAND)
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                            if emit is not None:
                                emit(stamp - 1, resident << offset_bits, WRITEBACK)
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        else:
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    policies[way // ways].touch(way % ways)
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    policy = policies[index]
                    victim = policy.victim()
                    policy.touch(victim)
                    way = index * ways + victim
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        # Write the flattened state back into the per-set structures.
        for index in sets:
            base = index * ways
            row_tags = tags_by_set[index]
            row_dirty = dirty_by_set[index]
            for way in range(ways):
                resident = resident_blocks[base + way]
                row_tags[way] = resident >> index_bits if resident >= 0 else -1
                row_dirty[way] = dirty_flat[base + way]
        if ts_flat is not None:
            for index in sets:
                base = index * ways
                segment = ts_flat[base:base + ways]
                policies[index]._order.sort(key=segment.__getitem__, reverse=True)
        for index in sets:
            miss_delta = set_misses[index] - misses_before[index]
            if hit_way_counts is not None:
                # accesses = hits (counted per way slot) + misses
                # (counted per set); folding both in here keeps the
                # set_hits reconstruction oblivious to how counting
                # happened.
                base = index * ways
                set_accesses[index] += sum(hit_way_counts[base:base + ways]) + miss_delta
            delta = set_accesses[index] - accesses_before[index]
            if delta:
                set_hits[index] += delta - miss_delta
        hits = n - misses
        stats.accesses += n
        stats.reads += n - writes
        stats.writes += writes
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        # A fixed decoder always selects a set: every miss is a PD hit.
        stats.pd_hit_misses += misses
        stats.slow_hits += slow_hits
        stats.slow_hit_cycles += slow_hit_cycles
        return stats

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        tag = block >> self.index_bits
        return tag in self._tags[index]

    def _flush_state(self) -> None:
        for index in range(self.num_sets):
            self._tags[index] = [-1] * self.ways
            self._dirty[index] = [False] * self.ways
            self._policies[index] = make_policy(
                self.policy_name, self.ways, seed=self._seed + index
            )
