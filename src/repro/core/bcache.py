"""The Balanced Cache (B-Cache) — the paper's primary contribution.

A direct-mapped cache whose local decoders are partially programmable.
Exactly one data/tag array is probed per access (one-cycle hits, same
access time as the baseline), but a replacement policy chooses among
``BAS`` candidate sets whenever the programmable decoder misses.

The three PD scenarios of Section 2.3 are implemented faithfully:

1. **Cold start** — invalid PD entries are programmed with the
   incoming address's PI; among clusters the victim is chosen by the
   replacement policy.
2. **Cache miss, PD hit** — the matching set *must* be the victim
   (replacing any other set would require evicting two blocks to keep
   decoding unique), so the replacement policy cannot help.  These
   forced replacements are counted as ``pd_hit_misses``.
3. **Cache miss, PD miss** — the miss is predetermined before any
   array read (tag/data arrays stay quiet, which the energy model
   credits); the victim is chosen from all ``BAS`` clusters and its PD
   entry is reprogrammed with the new PI.
"""

from __future__ import annotations

from typing import Sequence

from repro.caches import columnar
from repro.caches.base import (
    DEMAND,
    WRITEBACK,
    AccessResult,
    Cache,
    NextLevelStream,
)
from repro.core.config import BCacheGeometry
from repro.core.decoder import ProgrammableDecoderBank
from repro.replacement import ReplacementPolicy, make_policy
from repro.replacement.lru import LRUPolicy
from repro.stats.counters import CacheStats


class BCache(Cache):
    """Balanced cache with programmable decoders.

    Args:
        geometry: validated design point (size, line, MF, BAS).
        policy: replacement policy name (``lru`` or ``random`` in the
            paper; ``fifo``/``plru`` also accepted for ablations).
        seed: seed for stochastic policies.
    """

    def __init__(
        self,
        geometry: BCacheGeometry,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(
            geometry.size,
            geometry.line_size,
            geometry.num_sets,
            name
            or (
                f"BCache-{geometry.size // 1024}kB-"
                f"MF{geometry.mapping_factor}-BAS{geometry.associativity}"
            ),
        )
        self.geometry = geometry
        self.policy_name = policy
        self._seed = seed
        self.decoder = ProgrammableDecoderBank(
            geometry.num_rows, geometry.num_clusters, geometry.pi_bits
        )
        # Stored tag per physical set (reduced by log2(MF) bits vs the
        # baseline); -1 = invalid block.
        self._tags = [-1] * geometry.num_sets
        self._dirty = [False] * geometry.num_sets
        # One replacement domain per row, across the BAS clusters.
        self._policies: list[ReplacementPolicy] = [
            make_policy(policy, geometry.num_clusters, seed=seed + row)
            for row in range(geometry.num_rows)
        ]

    # ------------------------------------------------------------------
    def _evicted_address(self, row: int, cluster: int) -> tuple[int | None, bool]:
        """Reconstruct the (address, dirty) of the block in (row, cluster)."""
        set_index = self.geometry.set_index(row, cluster)
        tag = self._tags[set_index]
        if tag < 0:
            return None, False
        pd_value = self.decoder.value_at(row, cluster)
        assert pd_value is not None, "valid block without a programmed PD entry"
        block = self.geometry.compose_block(row, pd_value, tag)
        return block << self.offset_bits, self._dirty[set_index]

    def _fill(
        self, row: int, cluster: int, pi: int, tag: int, is_write: bool
    ) -> None:
        set_index = self.geometry.set_index(row, cluster)
        self._tags[set_index] = tag
        self._dirty[set_index] = is_write
        if self.decoder.value_at(row, cluster) != pi:
            self.decoder.program(row, cluster, pi)
        self._policies[row].touch(cluster)

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        geometry = self.geometry
        row, pi, tag = geometry.decompose_block(block)
        match = self.decoder.search(row, pi)

        if match.hit:
            cluster = match.cluster
            assert cluster is not None
            set_index = geometry.set_index(row, cluster)
            if self._tags[set_index] == tag:
                # One-cycle hit: exactly one word line fired.
                self._policies[row].touch(cluster)
                if is_write:
                    self._dirty[set_index] = True
                return AccessResult(hit=True, set_index=set_index)
            # Scenario 2: PD hit but tag mismatch.  The matching set is
            # the only legal victim (Section 2.3: replacing elsewhere
            # would force a double eviction to keep decoding unique).
            evicted, evicted_dirty = self._evicted_address(row, cluster)
            self._fill(row, cluster, pi, tag, is_write)
            return AccessResult(
                hit=False,
                set_index=set_index,
                evicted=evicted,
                evicted_dirty=evicted_dirty,
                pd_hit=True,
            )

        # Scenario 1/3: PD miss — the miss is predetermined; choose the
        # victim from all BAS clusters (invalid PD entries first, then
        # the replacement policy).
        invalid = self.decoder.invalid_clusters(row)
        if invalid:
            cluster = self._policies[row].victim_among(invalid)
        else:
            cluster = self._policies[row].victim()
        set_index = geometry.set_index(row, cluster)
        evicted, evicted_dirty = self._evicted_address(row, cluster)
        self._fill(row, cluster, pi, tag, is_write)
        return AccessResult(
            hit=False,
            set_index=set_index,
            evicted=evicted,
            evicted_dirty=evicted_dirty,
            pd_hit=False,
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`).

        The one-cycle-hit path (Scenario: PD hit + tag match) is fully
        inlined — no ``PDMatch``, no ``AccessResult``, no tuple from
        ``decompose_block``.  Under exact LRU the three miss scenarios
        of Section 2.3 are inlined too: the victim comes from the
        recency stamps, the tag and dirty bit are written in place and
        only a reprogramming goes through ``decoder.program`` (which
        keeps its range and uniqueness checks); the miss path fills a
        ``next_level`` stream, the recency stamp giving the position.
        Other policies reuse :meth:`_fill` and the policy objects.
        """
        if type(self)._access_block is not BCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        policies = self._policies
        lru_fast = all(type(p) is LRUPolicy for p in policies)
        if next_level is not None and not lru_fast:
            # Only the exact-LRU loop carries a position stamp to emit.
            return super()._batch_trace(addresses, kinds, next_level)
        geometry = self.geometry
        stats = self.stats
        decoder = self.decoder
        lookup = decoder._lookup  # per-row CAM reverse maps
        values = decoder._values  # per-row CAM entries, -1 = invalid
        tags = self._tags
        dirty = self._dirty
        num_rows = geometry.num_rows
        num_sets = geometry.num_sets
        num_clusters = geometry.num_clusters
        row_mask = num_rows - 1
        row_bits = num_rows.bit_length() - 1
        npi_bits = geometry.npi_bits
        pi_mask = (1 << geometry.pi_bits) - 1
        tag_shift = npi_bits + geometry.pi_bits
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        # Column preparation: only the offset shift vectorises — the
        # set index depends on decoder state, so hit detection and the
        # per-set counters stay sequential.
        block_column = columnar.shifted_blocks(addresses, offset_bits)
        if block_column is None:
            block_column = [a >> offset_bits for a in addresses]
        # One-cycle hits (PD hit + tag match) resolve with a single
        # probe of a {block: set index} map built from the decoder and
        # tag state; row and cluster fall out of the set index
        # (``set_index = cluster * num_rows + row``).
        hit_map: dict[int, int] = {}
        resident_blocks = [-1] * num_sets
        for row in range(num_rows):
            for pi_value, cluster in lookup[row].items():
                set_index = cluster * num_rows + row
                resident_tag = tags[set_index]
                if resident_tag >= 0:
                    resident = geometry.compose_block(row, pi_value, resident_tag)
                    hit_map[resident] = set_index
                    resident_blocks[set_index] = resident
        # Exact LRU is the paper's default policy; its touch() is pure
        # recency maintenance with no RNG, so it runs on a flat
        # timestamp column indexed by set (the recency lists are
        # rebuilt bit-identically from the stamps after the loop).
        ts_flat: list[int] | None = None
        if lru_fast:
            ts_flat = [0] * num_sets
            for row, policy in enumerate(policies):
                for position, cluster in enumerate(policy._order):
                    ts_flat[cluster * num_rows + row] = -position
        # Hits dominate: the hot loop only bumps per-set accesses and
        # misses; _commit_batch reconstructs per-set hits.
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        emit = next_level.emit if next_level is not None else None
        stamp = 0
        misses = writes = 0
        pd_miss = evictions = writebacks = 0
        hit_set = hit_map.get
        for block, kind in zip(block_column, kinds):
            set_index = hit_set(block, -1)
            if set_index >= 0:
                # One-cycle hit: exactly one word line fired.
                set_accesses[set_index] += 1
                if ts_flat is not None:
                    stamp += 1
                    ts_flat[set_index] = stamp
                else:
                    policies[set_index & row_mask].touch(set_index >> row_bits)
                if kind == 1:
                    writes += 1
                    dirty[set_index] = True
            else:
                row = block & row_mask
                pi = (block >> npi_bits) & pi_mask
                tag = block >> tag_shift
                # Scenario 2: PD hit, tag mismatch — the matching set is
                # the forced victim.
                cluster = lookup[row].get(pi)
                if cluster is None:
                    # Scenario 1/3: PD miss — victim from all BAS
                    # clusters (invalid PD entries first, then LRU).
                    pd_miss += 1
                    if ts_flat is None:
                        invalid = decoder.invalid_clusters(row)
                        policy = policies[row]
                        cluster = (
                            policy.victim_among(invalid)
                            if invalid
                            else policy.victim()
                        )
                    else:
                        segment = ts_flat[row::num_rows]
                        row_values = values[row]
                        if -1 in row_values:
                            # Cold start: the least recent invalid entry.
                            cluster = row_values.index(-1)
                            oldest = segment[cluster]
                            for candidate in range(cluster + 1, num_clusters):
                                if (
                                    row_values[candidate] < 0
                                    and segment[candidate] < oldest
                                ):
                                    oldest = segment[candidate]
                                    cluster = candidate
                        else:
                            cluster = segment.index(min(segment))
                set_index = cluster * num_rows + row
                misses += 1
                set_accesses[set_index] += 1
                set_misses[set_index] += 1
                is_write = kind == 1
                if is_write:
                    writes += 1
                if emit is not None:
                    emit(stamp, addresses[stamp], DEMAND)
                resident = resident_blocks[set_index]
                if resident >= 0:
                    evictions += 1
                    if dirty[set_index]:
                        writebacks += 1
                        if emit is not None:
                            emit(stamp, resident << offset_bits, WRITEBACK)
                    del hit_map[resident]
                if ts_flat is None:
                    self._fill(row, cluster, pi, tag, is_write)
                else:
                    # _fill without the recency touch: the stamp is the
                    # recency, and _order is rebuilt from it below.
                    tags[set_index] = tag
                    dirty[set_index] = is_write
                    if values[row][cluster] != pi:
                        decoder.program(row, cluster, pi)
                    stamp += 1
                    ts_flat[set_index] = stamp
                hit_map[block] = set_index
                resident_blocks[set_index] = block
        if ts_flat is not None:
            for row, policy in enumerate(policies):
                segment = ts_flat[row::num_rows]
                policy._order.sort(key=segment.__getitem__, reverse=True)
        # The per-access path performs one CAM search per reference.
        decoder.searches += n
        return self._commit_batch(
            n,
            accesses_before,
            misses_before,
            misses,
            writes,
            evictions,
            writebacks,
            pd_miss=pd_miss,
        )

    # ------------------------------------------------------------------
    def _probe_block(self, block: int) -> bool:
        row, pi, tag = self.geometry.decompose_block(block)
        cluster = self.decoder._lookup[row].get(pi)
        if cluster is None:
            return False
        return self._tags[self.geometry.set_index(row, cluster)] == tag

    def _flush_state(self) -> None:
        geometry = self.geometry
        self._tags = [-1] * geometry.num_sets
        self._dirty = [False] * geometry.num_sets
        self.decoder.flush()
        self._policies = [
            make_policy(self.policy_name, geometry.num_clusters, seed=self._seed + row)
            for row in range(geometry.num_rows)
        ]

    # ------------------------------------------------------------------
    @property
    def pd_hit_rate_during_miss(self) -> float:
        """Fraction of misses where the PD hit (Figure 3 / Table 6)."""
        return self.stats.pd_hit_rate_during_miss

    def check_integrity(self) -> None:
        """Validate structural invariants (used by property tests).

        * PD uniqueness per row.
        * Every valid block's PD entry is programmed.
        * Every block is findable at the address it would be evicted as.
        """
        self.decoder.check_integrity()
        geometry = self.geometry
        for row in range(geometry.num_rows):
            for cluster in range(geometry.num_clusters):
                set_index = geometry.set_index(row, cluster)
                if self._tags[set_index] >= 0:
                    pd_value = self.decoder.value_at(row, cluster)
                    if pd_value is None:
                        raise AssertionError(
                            f"set {set_index} holds a block but its PD is invalid"
                        )
                    block = geometry.compose_block(
                        row, pd_value, self._tags[set_index]
                    )
                    if not self._probe_block(block):
                        raise AssertionError(
                            f"set {set_index}: resident block is not probeable"
                        )
