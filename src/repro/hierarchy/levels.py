"""Latency-annotated cache levels.

Wraps a :class:`repro.caches.base.Cache` with its hit latency.  A hit
on an organisation's slow path (victim buffer swap-in, second probe,
relocated or mispredicted way) also costs the extra cycles the cache
recorded for it (``AccessResult.extra_cycles``), so the timing model
charges the multi-cycle hits the paper penalises prior art for
(Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.caches.base import AccessResult, Cache, NextLevelStream
from repro.stats.counters import CacheStats


@dataclass(frozen=True, slots=True)
class TimedAccess:
    """Cache access outcome annotated with the cycles it consumed."""

    result: AccessResult
    latency: int


class CacheLevel:
    """One level of the hierarchy: a cache plus its timing contract.

    Args:
        cache: the underlying organisation.
        hit_latency: cycles for a normal (fast-path) hit.  Slow-path
            hits add the cycles the cache records for them; the B-Cache
            and plain caches have no slow path — "the B-Cache requires
            only one cycle to access all cache hits" (Section 1).
    """

    def __init__(self, cache: Cache, hit_latency: int = 1) -> None:
        if hit_latency < 1:
            raise ValueError("hit_latency must be >= 1")
        self.cache = cache
        self.hit_latency = hit_latency

    @property
    def slow_hits(self) -> int:
        """Hits here that took the slow path."""
        return self.cache.stats.slow_hits

    def access(self, address: int, is_write: bool = False) -> TimedAccess:
        """Access the level, returning the outcome and cycles spent here.

        A miss costs the full hit latency too (the probe that discovers
        the miss); the next level's latency is added by the hierarchy.
        """
        result = self.cache.access(address, is_write)
        latency = self.hit_latency + result.extra_cycles
        return TimedAccess(result=result, latency=latency)

    def replay(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream,
    ) -> int:
        """Batch-replay ``addresses`` into ``next_level``; returns the
        extra cycles its slow hits took."""
        stats = self.cache.stats
        before = stats.slow_hit_cycles
        self.cache.access_trace(addresses, kinds, next_level)
        return stats.slow_hit_cycles - before

    @property
    def stats(self) -> CacheStats:
        """The wrapped cache's statistics."""
        return self.cache.stats

    def flush(self) -> None:
        """Invalidate the level (its statistics reset with it)."""
        self.cache.flush()
