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

from array import array
from typing import Sequence

from repro.caches.base import AccessResult, Cache, NextLevelStream
from repro.core.config import BCacheGeometry
from repro.core.decoder import ProgrammableDecoderBank
from repro.replacement import ReplacementPolicy, make_policy
from repro.stats.counters import CacheStats


class BCache(Cache):
    """Balanced cache with programmable decoders.

    State is kept in flat columns indexed by physical set: ``_tags``
    (``-1`` for an invalid block) and ``_dirty``, beside the decoder's
    PD column.  Exact LRU keeps one recency stamp per set in
    ``_stamps``, the value of ``_clock`` at the set's last touch, and
    builds no policy objects; the other policies keep one object per
    row in ``_policies``.

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
        self._flush_state()

    # ------------------------------------------------------------------
    def _touch(self, row: int, cluster: int) -> None:
        """Record a reference to (row, cluster), a hit or a fill."""
        if self._policies:
            self._policies[row].touch(cluster)
        else:
            self._clock += 1
            self._stamps[self.geometry.set_index(row, cluster)] = self._clock

    def _victim(self, row: int, candidates: list[int]) -> int:
        """The cluster the policy evicts next, among ``candidates`` if any."""
        if self._policies:
            policy = self._policies[row]
            return policy.victim_among(candidates) if candidates else policy.victim()
        stamps = self._stamps[row::self.geometry.num_rows]
        return min(candidates or range(len(stamps)), key=lambda cluster: stamps[cluster])

    def recency_order(self, row: int) -> tuple[int, ...]:
        """Row ``row``'s clusters under exact LRU, most recently used first."""
        stamps = self._stamps[row::self.geometry.num_rows]
        return tuple(sorted(range(len(stamps)), key=lambda cluster: -stamps[cluster]))

    def _replace(
        self, row: int, cluster: int, pi: int, tag: int, is_write: bool, pd_hit: bool
    ) -> AccessResult:
        """A miss that fills (row, cluster), evicting its valid block."""
        set_index = self.geometry.set_index(row, cluster)
        evicted = None
        if self._tags[set_index] >= 0:
            pd_value = self.decoder.value_at(row, cluster)
            assert pd_value is not None, "valid block without a programmed PD entry"
            block = self.geometry.compose_block(row, pd_value, self._tags[set_index])
            evicted = block << self.offset_bits
        result = AccessResult(
            hit=False,
            set_index=set_index,
            evicted=evicted,
            evicted_dirty=evicted is not None and bool(self._dirty[set_index]),
            pd_hit=pd_hit,
        )
        self._tags[set_index] = tag
        self._dirty[set_index] = is_write
        if self.decoder.value_at(row, cluster) != pi:
            self.decoder.program(row, cluster, pi)
        self._touch(row, cluster)
        return result

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
                self._touch(row, cluster)
                if is_write:
                    self._dirty[set_index] = True
                return AccessResult(hit=True, set_index=set_index)
            # Scenario 2: PD hit but tag mismatch.  The matching set is
            # the only legal victim (Section 2.3: replacing elsewhere
            # would force a double eviction to keep decoding unique).
            return self._replace(row, cluster, pi, tag, is_write, pd_hit=True)

        # Scenario 1/3: PD miss — the miss is predetermined; choose the
        # victim from all BAS clusters (invalid PD entries first, then
        # the replacement policy).
        cluster = self._victim(row, self.decoder.invalid_clusters(row))
        return self._replace(row, cluster, pi, tag, is_write, pd_hit=False)

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Batch kernel (see :meth:`Cache.access_trace`).

        Exact LRU runs the compiled kernel (:mod:`repro.caches.native`),
        which also fills ``next_level``.  Other policies run the loop
        below on plain batches: the one-cycle-hit path (PD hit + tag
        match) is inlined, with no ``PDMatch``, no ``AccessResult`` and
        no tuple from ``decompose_block``; misses update the state
        inline and the policy objects.
        """
        if type(self)._access_block is not BCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds, next_level)
        geometry = self.geometry
        decoder = self.decoder
        if not self._policies:
            # Imported per batch, not per module: see repro.caches.native.
            from repro.caches import native

            counters = native.replay(
                self,
                "bcache_lru",
                (
                    self.offset_bits, geometry.npi_bits, geometry.pi_bits,
                    geometry.num_clusters, self._tags, self._dirty,
                    self._stamps, decoder._values,
                ),
                addresses, kinds, next_level,
            )
            if counters is not None:
                # The per-access path performs one CAM search per reference.
                decoder.searches += len(addresses)
                decoder.programs += counters[native.PROGRAMS]
                return self.stats
        if next_level is not None or not self._policies:
            return super()._batch_trace(addresses, kinds, next_level)
        policies, values, tags, dirty = self._policies, decoder._values, self._tags, self._dirty
        num_rows, num_clusters = geometry.num_rows, geometry.num_clusters
        row_mask, row_bits = num_rows - 1, num_rows.bit_length() - 1
        npi_bits = geometry.npi_bits
        pi_mask = (1 << geometry.pi_bits) - 1
        tag_shift = npi_bits + geometry.pi_bits
        pd_field = (1 << tag_shift) - 1
        set_accesses, set_misses = self.stats.set_accesses, self.stats.set_misses
        n = len(addresses)
        # Imported per batch, not per module: see repro.caches.columnar.
        from repro.caches import columnar

        block_column = columnar.shifted_blocks(addresses, self.offset_bits)
        # One-cycle hits (PD hit + tag match) resolve with a single
        # probe of a {block: set index} map, and PD searches with one
        # probe of a {(PI, row): cluster} map, both built from the
        # decoder and tag state; row and cluster fall out of the set
        # index (``set_index = cluster * num_rows + row``).
        pd_map: dict[int, int] = {}
        hit_map: dict[int, int] = {}
        for entry, value in enumerate(values):
            if value >= 0:
                row, cluster = divmod(entry, num_clusters)
                pd_map[(value << npi_bits) | row] = cluster
                set_index = cluster * num_rows + row
                if tags[set_index] >= 0:
                    hit_map[(tags[set_index] << tag_shift)
                            | (value << npi_bits) | row] = set_index
        # Hits dominate: the hot loop only bumps per-set accesses and
        # misses; _commit_batch reconstructs per-set hits.
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        misses = writes = pd_miss = evictions = writebacks = 0
        hit_set = hit_map.get
        for block, kind in zip(block_column, bytes(n) if kinds is None else kinds):
            set_index = hit_set(block, -1)
            if set_index >= 0:
                # One-cycle hit: exactly one word line fired.
                set_accesses[set_index] += 1
                policies[set_index & row_mask].touch(set_index >> row_bits)
                if kind == 1:
                    writes += 1
                    dirty[set_index] = True
                continue
            row = block & row_mask
            pi = (block >> npi_bits) & pi_mask
            # Scenario 2: PD hit, tag mismatch — the matching set is the
            # forced victim; scenarios 1/3: PD miss.
            cluster = pd_map.get(block & pd_field, -1)
            if cluster < 0:
                pd_miss += 1
                invalid = decoder.invalid_clusters(row)
                policy = policies[row]
                cluster = policy.victim_among(invalid) if invalid else policy.victim()
            set_index = cluster * num_rows + row
            old_pi = values[row * num_clusters + cluster]
            misses += 1
            set_accesses[set_index] += 1
            set_misses[set_index] += 1
            resident_tag = tags[set_index]
            if resident_tag >= 0:
                evictions += 1
                writebacks += dirty[set_index]
                del hit_map[(resident_tag << tag_shift) | (old_pi << npi_bits) | row]
            if old_pi != pi:
                pd_map.pop((old_pi << npi_bits) | row, None)
                pd_map[block & pd_field] = cluster
                decoder.program(row, cluster, pi)
            tags[set_index] = block >> tag_shift
            dirty[set_index] = kind == 1
            writes += kind == 1
            policies[row].touch(cluster)
            hit_map[block] = set_index
        decoder.searches += n
        return self._commit_batch(
            n, accesses_before, misses_before, misses, writes, evictions,
            writebacks, pd_miss=pd_miss,
        )

    # ------------------------------------------------------------------
    def _probe_block(self, block: int) -> bool:
        row, pi, tag = self.geometry.decompose_block(block)
        cluster = self.decoder.find(row, pi)
        if cluster is None:
            return False
        return self._tags[self.geometry.set_index(row, cluster)] == tag

    def _flush_state(self) -> None:
        geometry = self.geometry
        self._tags = array("q", [-1]) * geometry.num_sets
        self._dirty = bytearray(geometry.num_sets)
        self.decoder.flush()
        # A fresh LRU order lists the clusters in order (cluster 0 most
        # recent); set_index = cluster * num_rows + row.
        self._stamps = array("q", [
            -(set_index // geometry.num_rows) for set_index in range(geometry.num_sets)
        ])
        self._clock = 0
        self._policies: list[ReplacementPolicy] = (
            []
            if self.policy_name.lower() == "lru"
            else [
                make_policy(self.policy_name, geometry.num_clusters, seed=self._seed + row)
                for row in range(geometry.num_rows)
            ]
        )

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
