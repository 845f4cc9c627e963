"""Conventional N-way set-associative cache.

The paper compares the baseline against 2-, 4-, 8- and 32-way caches of
the same size with LRU replacement (Figures 4, 5, 8, 9, 12).  An N-way
cache shortens the index by log2(N) bits relative to the direct-mapped
baseline and chooses a victim among N blocks per set.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.caches.base import (
    AccessResult,
    Cache,
    NextLevelStream,
    log2_exact,
)
from repro.replacement import ReplacementPolicy, make_policy
from repro.stats.counters import CacheStats

#: The compiled kernel's encoding of :attr:`SetAssociativeCache.way_prediction`.
_PREDICTIONS = {"": 0, "pam": 1, "psa": 2}


class SetAssociativeCache(Cache):
    """N-way set-associative cache with a pluggable replacement policy.

    State is kept in flat columns indexed by line, ``set * ways + way``:
    ``_tags`` (``-1`` for an invalid line) and ``_dirty``.  Exact LRU
    keeps one recency stamp per line in ``_stamps``, the value of
    ``_clock`` at the line's last touch, and builds no policy objects;
    the other policies keep one object per set in ``_policies``.
    """

    #: The way prediction the compiled exact-LRU kernel applies in place
    #: of ``_access_block``: "" none, "pam" partial address matching,
    #: "psa" predictive sequential.  Declared by the class that defines
    #: the ``_access_block`` it stands for (see :meth:`_batch_trace`).
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

    def _touch(self, line: int) -> None:
        """Record a reference to ``line`` (a hit or a fill)."""
        if self._policies:
            self._policies[line // self.ways].touch(line % self.ways)
        else:
            self._clock += 1
            self._stamps[line] = self._clock

    def _victim(self, index: int) -> int:
        """The line of set ``index`` the policy evicts next."""
        base = index * self.ways
        if self._policies:
            return base + self._policies[index].victim()
        stamps = self._stamps[base:base + self.ways]
        return base + stamps.index(min(stamps))

    def recency_order(self, index: int) -> tuple[int, ...]:
        """Set ``index``'s ways under exact LRU, most recently used first."""
        base = index * self.ways
        return tuple(
            sorted(range(self.ways), key=lambda way: -self._stamps[base + way])
        )

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        base = index * self.ways
        tags = self._tags
        try:
            line = tags.index(tag, base, base + self.ways)
        except ValueError:
            line = self._victim(index)
        else:
            self._touch(line)
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
        self._touch(line)
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Batch kernel (see :meth:`Cache.access_trace`).

        Exact LRU runs the compiled kernel (:mod:`repro.caches.native`),
        which also applies a way-predicting subclass's slow-hit rule
        (see :attr:`way_prediction`) and fills ``next_level``.  Other
        policies run the loop below on plain batches.
        """
        # The class that defines _access_block names the way prediction
        # the compiled kernel models in its place; a subclass that
        # overrides _access_block without naming one gets the generic
        # kernel.
        owner = next(c for c in type(self).__mro__ if "_access_block" in vars(c))
        prediction = vars(owner).get("way_prediction")
        if prediction is not None and not self._policies:
            # Imported per batch, not per module: see repro.caches.native.
            from repro.caches import native

            if native.replay(
                self,
                "set_associative_lru",
                (
                    self.offset_bits, self.index_bits, self.ways,
                    self._tags, self._dirty, self._stamps,
                    _PREDICTIONS[prediction], getattr(self, "_pad_mask", 0),
                    getattr(self, "_mru", None),
                ),
                addresses, kinds, next_level,
            ) is not None:
                return self.stats
        if prediction != "" or next_level is not None or not self._policies:
            return super()._batch_trace(addresses, kinds, next_level)
        stats = self.stats
        tags, dirty, policies, ways = self._tags, self._dirty, self._policies, self.ways
        index_mask, index_bits = self._index_mask, self.index_bits
        set_misses = stats.set_misses
        n = len(addresses)
        # Imported per batch, not per module: see repro.caches.columnar.
        from repro.caches import columnar

        block_column, counts = columnar.block_columns(
            addresses, self.offset_bits, index_mask, self.num_sets
        )
        # Hits dominate: the loop only bumps per-set misses; per-set
        # hits follow from the counts of the sets the batch touched.
        sets = columnar.add_set_counts(stats.set_accesses, counts)
        misses_before = [set_misses[index] for index in sets]
        # One {block: line} map resolves a hit with a single probe.
        lookup = {
            (tag << index_bits) | (line // ways): line
            for line, tag in enumerate(tags)
            if tag >= 0
        }
        misses = writes = evictions = writebacks = 0
        for block, kind in zip(block_column, bytes(n) if kinds is None else kinds):
            try:
                line = lookup[block]
                policies[line // ways].touch(line % ways)
                if kind == 1:
                    writes += 1
                    dirty[line] = True
            except KeyError:
                index = block & index_mask
                misses += 1
                set_misses[index] += 1
                policy = policies[index]
                line = index * ways + policy.victim()
                policy.touch(line % ways)
                if tags[line] >= 0:
                    evictions += 1
                    writebacks += dirty[line]
                    del lookup[(tags[line] << index_bits) | index]
                lookup[block] = line
                tags[line] = block >> index_bits
                dirty[line] = kind == 1
                writes += kind == 1
        for index, missed_before in zip(sets, misses_before):
            stats.set_hits[index] += int(counts[index]) - (set_misses[index] - missed_before)
        return self._commit_batch(n, None, None, misses, writes, evictions, writebacks)

    def _probe_block(self, block: int) -> bool:
        base = (block & self._index_mask) * self.ways
        return block >> self.index_bits in self._tags[base:base + self.ways]

    def _flush_state(self) -> None:
        lines = self.num_sets * self.ways
        self._tags = array("q", [-1]) * lines
        self._dirty = bytearray(lines)
        # A fresh LRU order lists the ways in order, so a cold set fills
        # its highest way first and way 0 last.
        self._stamps = array("q", [-way for way in range(self.ways)]) * self.num_sets
        self._clock = 0
        self._policies: list[ReplacementPolicy] = (
            []
            if self.policy_name.lower() == "lru"
            else [
                make_policy(self.policy_name, self.ways, seed=self._seed + index)
                for index in range(self.num_sets)
            ]
        )
