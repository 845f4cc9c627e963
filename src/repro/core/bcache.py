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
from typing import Any

from repro.caches.base import AccessResult, Cache
from repro.core.config import BCacheGeometry
from repro.core.decoder import ProgrammableDecoderBank
from repro.replacement import Replacement


class BCache(Cache):
    """Balanced cache with programmable decoders.

    State is kept in flat columns indexed by physical set: ``_tags``
    (``-1`` for an invalid block) and ``_dirty``, beside the decoder's
    PD column and the policy's columns in ``_replacement`` (a row is a
    replacement domain, its clusters the ways).

    Args:
        geometry: validated design point (size, line, MF, BAS).
        policy: replacement policy name (``lru`` or ``random`` in the
            paper; ``fifo``/``plru`` also accepted for ablations).
        seed: seed for stochastic policies.
    """

    kernel = "bcache"

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
    def recency_order(self, row: int) -> tuple[int, ...]:
        """Row ``row``'s clusters under exact LRU, most recently used first."""
        return self._replacement.order(row)

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
        self._replacement.touch(row, cluster)
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
                self._replacement.touch(row, cluster)
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
        invalid = self.decoder.invalid_clusters(row)
        cluster = self._replacement.victim(row, invalid or None)
        return self._replace(row, cluster, pi, tag, is_write, pd_hit=False)

    def _kernel_args(self) -> tuple[tuple[Any, ...], int]:
        geometry = self.geometry
        return (
            self.offset_bits, geometry.npi_bits, geometry.pi_bits,
            geometry.num_clusters, self._tags, self._dirty, self.decoder._values,
            *self._replacement.kernel_args(),
        ), self._replacement.clock

    def _kernel_done(self, clock: int, counters: list[int], n: int) -> None:
        from repro.caches.native import PROGRAMS

        self._replacement.clock = clock
        # The per-access path performs one CAM search per reference.
        self.decoder.searches += n
        self.decoder.programs += counters[PROGRAMS]

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
        self._replacement = Replacement(
            self.policy_name, geometry.num_clusters, geometry.num_rows,
            seed=self._seed, by_way=True,
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
