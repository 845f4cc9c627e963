"""Tiny, obviously-correct reference models for differential checking.

The production caches are optimised (flat state columns replayed by
compiled kernels, precomputed masks); these references are written for auditability
instead — a direct-mapped cache is one dict, an N-way LRU cache is one
:class:`~collections.OrderedDict` per set.  The sanitizer's
differential mode replays the same access stream through both and
requires bit-identical hit/miss outcomes (miss *rates* agreeing is not
enough: two models can disagree per-access yet land on similar rates).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.caches.base import Cache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache


class ReferenceSetAssociativeLRU:
    """N-way set-associative LRU cache in ~20 lines (ways=1 ⇒ DM).

    Hit/miss behaviour of an LRU cache depends only on the recency
    order of the blocks in each set, never on which physical way holds
    them, so this model is stream-equivalent to any correct LRU
    implementation of the same geometry.
    """

    def __init__(self, num_sets: int, ways: int, offset_bits: int) -> None:
        if num_sets < 1 or ways < 1 or offset_bits < 0:
            raise ValueError("num_sets/ways must be >= 1, offset_bits >= 0")
        self.num_sets = num_sets
        self.ways = ways
        self.offset_bits = offset_bits
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(num_sets)
        ]

    def access(self, address: int) -> bool:
        """Reference ``address``; allocate on miss; return hit/miss."""
        block = address >> self.offset_bits
        resident = self._sets[block % self.num_sets]
        if block in resident:
            resident.move_to_end(block)
            return True
        if len(resident) >= self.ways:
            resident.popitem(last=False)
        resident[block] = None
        return False

    def flush(self) -> None:
        for resident in self._sets:
            resident.clear()


def reference_for(cache: Cache) -> ReferenceSetAssociativeLRU | None:
    """Build a reference model for ``cache``, or None if unsupported.

    Exact-type matches only: subclasses (way prediction, victim
    buffers, alternative write policies, ...) intentionally deviate
    from the plain hit/miss stream and must not be cross-checked.
    """
    if type(cache) is DirectMappedCache:
        return ReferenceSetAssociativeLRU(cache.num_sets, 1, cache.offset_bits)
    if type(cache) is SetAssociativeCache and cache.policy_name == "lru":
        return ReferenceSetAssociativeLRU(
            cache.num_sets, cache.ways, cache.offset_bits
        )
    if type(cache) is FullyAssociativeCache and cache.policy_name == "lru":
        return ReferenceSetAssociativeLRU(1, cache.ways, cache.offset_bits)
    return None
