"""3C miss classification: compulsory / capacity / conflict.

The paper's whole premise is that direct-mapped caches suffer
**conflict** misses — misses a fully associative cache of the same
capacity would not take (Hill's classic 3C model):

* **compulsory** — first reference to a block, misses everywhere;
* **capacity**  — misses even in a fully associative LRU cache of the
  same capacity;
* **conflict**  — everything else: an artefact of restricted placement,
  the target of the B-Cache, victim buffers, skewing et al.

:func:`classify_misses` replays the stream as one batch per cache under
test and once through a same-capacity fully associative LRU reference,
then buckets every miss by its position in the stream.  The
decomposition experiment shows the B-Cache removing most of the
baseline's conflict bucket while leaving compulsory/capacity intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from repro.caches.base import DEMAND, Cache, NextLevelStream
from repro.caches.fully_associative import FullyAssociativeCache


@dataclass(frozen=True, slots=True)
class MissBreakdown:
    """Counts of each miss class for one run."""

    accesses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def total_misses(self) -> int:
        """Sum of the three miss classes."""
        return self.compulsory + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        """Total misses over accesses."""
        if not self.accesses:
            return 0.0
        return self.total_misses / self.accesses

    def fraction(self, kind: str) -> float:
        """Share of misses in one class (``compulsory``/``capacity``/``conflict``)."""
        total = self.total_misses
        if not total:
            return 0.0
        return getattr(self, kind) / total


def classify_misses(
    caches: Sequence[Cache], addresses: Sequence[int]
) -> list[MissBreakdown]:
    """Run ``addresses`` through each of ``caches``, classifying every miss.

    The caches (at least one) must share one capacity and line size;
    the fully associative LRU reference of that geometry is replayed
    once for all of them.  Returns one breakdown per cache, in order.
    """
    geometries = {(cache.size, cache.line_size) for cache in caches}
    if len(geometries) != 1:
        raise ValueError("classify_misses needs caches of one capacity and line size")
    ((size, line_size),) = geometries
    reference = FullyAssociativeCache(size, line_size, policy="lru")
    reference_misses = _miss_positions(reference, addresses)
    first_positions: dict[int, int] = {}
    offset_bits = reference.offset_bits
    for position, address in enumerate(addresses):
        first_positions.setdefault(address >> offset_bits, position)
    first_references = set(first_positions.values())
    breakdowns = []
    for cache in caches:
        misses = _miss_positions(cache, addresses)
        compulsory = len(misses & first_references)
        capacity = len((misses & reference_misses) - first_references)
        breakdowns.append(
            MissBreakdown(
                accesses=len(addresses),
                compulsory=compulsory,
                capacity=capacity,
                conflict=len(misses) - compulsory - capacity,
            )
        )
    return breakdowns


def _miss_positions(cache: Cache, addresses: Sequence[int]) -> set[int]:
    """Stream positions at which one batch replay of ``addresses`` missed."""
    out = NextLevelStream()
    cache.access_trace(addresses, None, out)
    return set(compress(out.positions, (kind == DEMAND for kind in out.kinds)))
