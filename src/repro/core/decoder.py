"""Programmable decoder (PD) model.

The defining feature of the B-Cache (Section 2.3): each cache set owns
a CAM entry holding a ``PI``-bit *programmable index*.  A set's word
line fires only when its non-programmable decoder matches the address's
NPI bits **and** its CAM entry matches the address's PI bits.

Within one row (one NPI value) the valid CAM entries must be pairwise
distinct — "The two PIs must be different to maintain unique address
decoding" (Figure 1) — so at most one set can fire per access.  This
invariant is maintained structurally: entries are only (re)programmed
after a PD miss, with a value no valid entry in the row holds.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass


class DecoderIntegrityError(RuntimeError):
    """Raised when an operation would violate unique address decoding."""


@dataclass(frozen=True, slots=True)
class PDMatch:
    """Result of a programmable-decoder search within one row."""

    hit: bool
    cluster: int | None = None


class ProgrammableDecoderBank:
    """All PD entries of a B-Cache: ``rows x clusters`` CAM cells.

    Each entry is a ``pi_bits``-wide value, or ``-1`` when invalid, in
    one flat ``_values`` column indexed ``row * clusters + cluster``
    (the compiled B-Cache kernel searches and programs it in place).
    Searches are by (row, value); programming enforces the per-row
    uniqueness invariant.
    """

    def __init__(self, num_rows: int, num_clusters: int, pi_bits: int) -> None:
        if num_rows < 1 or num_clusters < 1:
            raise ValueError("num_rows and num_clusters must be >= 1")
        if pi_bits < 0:
            raise ValueError("pi_bits must be >= 0")
        self.num_rows = num_rows
        self.num_clusters = num_clusters
        self.pi_bits = pi_bits
        self._values = array("q", [-1]) * (num_rows * num_clusters)
        self.searches = 0
        self.programs = 0

    # ------------------------------------------------------------------
    def find(self, row: int, value: int) -> int | None:
        """The cluster of ``row`` holding ``value`` (no search counted)."""
        base = row * self.num_clusters
        values = self._values[base:base + self.num_clusters]
        return values.index(value) if value in values else None

    def search(self, row: int, value: int) -> PDMatch:
        """CAM search: which cluster's entry matches ``value`` in ``row``?"""
        self.searches += 1
        cluster = self.find(row, value)
        if cluster is None:
            return PDMatch(hit=False)
        return PDMatch(hit=True, cluster=cluster)

    def value_at(self, row: int, cluster: int) -> int | None:
        """Programmed value of one entry, or None if invalid."""
        value = self._values[row * self.num_clusters + cluster]
        return None if value < 0 else value

    def is_valid(self, row: int, cluster: int) -> bool:
        return self._values[row * self.num_clusters + cluster] >= 0

    def invalid_clusters(self, row: int) -> list[int]:
        """Clusters of ``row`` whose PD entry is still invalid (cold)."""
        base = row * self.num_clusters
        values = self._values[base:base + self.num_clusters]
        return [c for c in range(self.num_clusters) if values[c] < 0]

    # ------------------------------------------------------------------
    def program(self, row: int, cluster: int, value: int) -> None:
        """(Re)program one entry, preserving per-row uniqueness.

        Reprogramming a cluster to the value it already holds is a
        no-op; programming a value held by a *different* valid entry in
        the same row raises :class:`DecoderIntegrityError`, because two
        word lines would then fire for one address.
        """
        if not 0 <= value < (1 << self.pi_bits):
            raise ValueError(f"value {value} does not fit in {self.pi_bits} bits")
        holder = self.find(row, value)
        if holder is not None and holder != cluster:
            raise DecoderIntegrityError(
                f"row {row}: value {value:#x} already programmed in cluster {holder}"
            )
        self._values[row * self.num_clusters + cluster] = value
        self.programs += 1

    def invalidate(self, row: int, cluster: int) -> None:
        """Mark one entry invalid (used at flush and for fault injection)."""
        self._values[row * self.num_clusters + cluster] = -1

    def flush(self) -> None:
        """Invalidate every entry (cache cold start)."""
        self._values = array("q", [-1]) * (self.num_rows * self.num_clusters)

    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Verify the uniqueness invariant over the whole bank.

        Used by tests; raises :class:`DecoderIntegrityError` on any
        duplicated valid value within a row.
        """
        for row in range(self.num_rows):
            seen: dict[int, int] = {}
            for cluster in range(self.num_clusters):
                value = self._values[row * self.num_clusters + cluster]
                if value < 0:
                    continue
                if value in seen:
                    raise DecoderIntegrityError(
                        f"row {row}: clusters {seen[value]} and {cluster} "
                        f"both hold {value:#x}"
                    )
                seen[value] = cluster

    def occupancy(self) -> float:
        """Fraction of PD entries that are valid."""
        valid = sum(1 for value in self._values if value >= 0)
        return valid / len(self._values)
