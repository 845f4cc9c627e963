"""Cache statistics counters.

Every cache model owns a :class:`CacheStats`; per-set counters feed the
balance analysis of Table 7 (frequent-hit / frequent-miss /
less-accessed sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class CacheStats:
    """Aggregate and per-set access counters for one cache."""

    num_sets: int = 0
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    reads: int = 0
    writes: int = 0
    evictions: int = 0
    writebacks: int = 0
    # B-Cache specific: programmable-decoder outcome during *misses*.
    pd_hit_misses: int = 0
    pd_miss_misses: int = 0
    # Hits that took a slow path (victim swap-in, second probe, ...) and
    # the cycles they cost beyond a normal hit.
    slow_hits: int = 0
    slow_hit_cycles: int = 0
    set_accesses: list[int] = field(default_factory=list)
    set_hits: list[int] = field(default_factory=list)
    set_misses: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_sets and not self.set_accesses:
            self.set_accesses = [0] * self.num_sets
            self.set_hits = [0] * self.num_sets
            self.set_misses = [0] * self.num_sets

    def record(self, set_index: int, hit: bool, is_write: bool) -> None:
        """Record one access resolved at physical set ``set_index``."""
        self.accesses += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.set_accesses[set_index] += 1
        if hit:
            self.hits += 1
            self.set_hits[set_index] += 1
        else:
            self.misses += 1
            self.set_misses[set_index] += 1

    @property
    def miss_rate(self) -> float:
        """Misses / accesses; 0.0 for an untouched cache."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits / accesses; 0.0 for an untouched cache."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    @property
    def pd_hit_rate_during_miss(self) -> float:
        """Fraction of cache misses on which the PD nevertheless hit.

        This is the quantity plotted on the right axis of Figure 3 and
        tabulated in Table 6; low values mean the replacement policy is
        free to balance the accesses.  Conventional caches report 1.0
        (a fixed decoder always selects a set, predicting nothing).
        """
        if not self.misses:
            return 0.0
        return self.pd_hit_misses / self.misses

    def as_dict(self) -> dict:
        """Aggregate counters as a JSON-serialisable dict (no per-set
        arrays; use the balance analysis for set-level summaries)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "reads": self.reads,
            "writes": self.writes,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "pd_hit_misses": self.pd_hit_misses,
            "pd_miss_misses": self.pd_miss_misses,
            "pd_hit_rate_during_miss": self.pd_hit_rate_during_miss,
            "slow_hits": self.slow_hits,
            "slow_hit_cycles": self.slow_hit_cycles,
        }

    def snapshot(self) -> dict:
        """Lossless JSON-serialisable state, including per-set counters.

        Unlike :meth:`as_dict` (an aggregate summary), a snapshot round
        trips through :meth:`from_snapshot` bit-identically — this is
        the wire/journal format of the resilience layer.
        """
        return {
            "num_sets": self.num_sets,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "reads": self.reads,
            "writes": self.writes,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "pd_hit_misses": self.pd_hit_misses,
            "pd_miss_misses": self.pd_miss_misses,
            "slow_hits": self.slow_hits,
            "slow_hit_cycles": self.slow_hit_cycles,
            "set_accesses": list(self.set_accesses),
            "set_hits": list(self.set_hits),
            "set_misses": list(self.set_misses),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "CacheStats":
        """Rebuild a stats object from :meth:`snapshot` output.

        Raises ``ValueError`` on malformed state (a missing counter,
        wrong per-set lengths or non-integral counters) so journal
        readers can treat a bad record as corrupt instead of
        resurrecting garbage.  A snapshot written before a counter
        existed lacks it and is rejected the same way, so a result
        store recomputes it rather than reviving it with a zero.
        """
        try:
            per_set = {
                key: _per_set(state[key])
                for key in ("set_accesses", "set_hits", "set_misses")
            }
            stats = cls(
                num_sets=int(state["num_sets"]),
                accesses=int(state["accesses"]),
                hits=int(state["hits"]),
                misses=int(state["misses"]),
                reads=int(state["reads"]),
                writes=int(state["writes"]),
                evictions=int(state["evictions"]),
                writebacks=int(state["writebacks"]),
                pd_hit_misses=int(state["pd_hit_misses"]),
                pd_miss_misses=int(state["pd_miss_misses"]),
                slow_hits=int(state["slow_hits"]),
                slow_hit_cycles=int(state["slow_hit_cycles"]),
                **per_set,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed stats snapshot: {exc}") from exc
        # The lists as read: __post_init__ zero-fills an empty one.
        for values in per_set.values():
            if len(values) != stats.num_sets:
                raise ValueError(
                    "malformed stats snapshot: per-set counter length "
                    f"{len(values)} != num_sets {stats.num_sets}"
                )
        return stats

    def reset(self) -> None:
        """Zero all counters, keeping the set count."""
        per_set = self.num_sets
        self.__init__(num_sets=per_set)

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into this stats object (same geometry)."""
        if other.num_sets != self.num_sets:
            raise ValueError("cannot merge stats with different set counts")
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.reads += other.reads
        self.writes += other.writes
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.pd_hit_misses += other.pd_hit_misses
        self.pd_miss_misses += other.pd_miss_misses
        self.slow_hits += other.slow_hits
        self.slow_hit_cycles += other.slow_hit_cycles
        for i in range(self.num_sets):
            self.set_accesses[i] += other.set_accesses[i]
            self.set_hits[i] += other.set_hits[i]
            self.set_misses[i] += other.set_misses[i]


def _per_set(values: Any) -> list[int]:
    """``[int(v) for v in values]``, at C speed for the common case: a
    list of plain ints (a snapshot read from JSON or a pipe)."""
    if type(values) is list and set(map(type, values)) <= {int}:
        return values.copy()
    return [int(v) for v in values]
