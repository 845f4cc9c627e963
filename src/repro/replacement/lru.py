"""True least-recently-used replacement.

Maintains an explicit recency order: position 0 is most recently used,
the tail is least recently used.  ``victim_among`` honours the same
order restricted to the candidate subset, which is what the B-Cache
needs when the programmable decoder narrows the victim choice
(Section 2.3 of the paper).
"""

from __future__ import annotations

from repro.replacement.base import PolicyError, ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """Exact LRU over ``ways`` ways."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # Most recent first.  Starts in way order, so the victim is the
        # tail: a cold set fills its highest way first and way 0 last.
        self._order: list[int] = list(range(ways))

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise PolicyError(f"way {way} out of range 0..{self.ways - 1}")
        self._order.remove(way)
        self._order.insert(0, way)

    def victim(self) -> int:
        return self._order[-1]

    def invalidate(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise PolicyError(f"way {way} out of range 0..{self.ways - 1}")
        self._order.remove(way)
        self._order.append(way)

    def victim_among(self, candidates: list[int]) -> int:
        if not candidates:
            raise ValueError("candidates must be non-empty")
        candidate_set = set(candidates)
        for way in reversed(self._order):
            if way in candidate_set:
                return way
        raise PolicyError("candidates contain unknown ways")

    def recency_order(self) -> tuple[int, ...]:
        """Snapshot of the order, most recently used first (for tests)."""
        return tuple(self._order)
