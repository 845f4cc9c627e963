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
test and makes one LRU pass over its block column for the
same-capacity fully associative reference, then buckets every miss by
its position in the stream.  The decomposition experiment shows the
B-Cache removing most of the baseline's conflict bucket while leaving
compulsory/capacity intact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from repro.caches.base import DEMAND, Cache, NextLevelStream


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

    The caches (at least one) must share one capacity and line size.
    The fully associative LRU reference of that geometry is one pass
    over the stream's blocks (:func:`fully_associative_misses`), shared
    by all of them.  Returns one breakdown per cache, in order.
    """
    geometries = {(cache.size, cache.line_size) for cache in caches}
    if len(geometries) != 1:
        raise ValueError("classify_misses needs caches of one capacity and line size")
    ((size, line_size),) = geometries
    reference_misses, first_references = fully_associative_misses(
        addresses, size // line_size, caches[0].offset_bits
    )
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


def fully_associative_misses(
    addresses: Sequence[int], capacity: int, offset_bits: int
) -> tuple[set[int], set[int]]:
    """Miss positions of a cold fully associative LRU cache of
    ``capacity`` blocks over ``addresses``, and the positions of each
    block's first reference (its compulsory misses).

    One pass: the resident blocks in recency order, least recent
    first.  A hit moves its block to the end; a miss appends one and
    drops the least recent block once the cache is full.
    """
    resident: OrderedDict[int, None] = OrderedDict()
    touch = resident.move_to_end
    drop_lru = resident.popitem
    seen: set[int] = set()
    misses: set[int] = set()
    first: set[int] = set()
    for position, address in enumerate(addresses):
        block = address >> offset_bits
        try:
            touch(block)
        except KeyError:
            misses.add(position)
            if block not in seen:
                seen.add(block)
                first.add(position)
            resident[block] = None
            if len(resident) > capacity:
                drop_lru(last=False)
    return misses, first


def _miss_positions(cache: Cache, addresses: Sequence[int]) -> set[int]:
    """Stream positions at which one batch replay of ``addresses`` missed."""
    out = NextLevelStream()
    cache.access_trace(addresses, None, out)
    return set(compress(out.positions, (kind == DEMAND for kind in out.kinds)))
