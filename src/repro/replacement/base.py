"""Replacement-policy protocol shared by every associative structure.

A policy instance manages **one** replacement domain (one set of a
set-associative cache, one B-Cache candidate group, one fully
associative buffer).  Ways are identified by dense integer indices
``0..ways-1``.  The simulators call :meth:`touch` on every hit or fill
and :meth:`victim` when an eviction is needed; :meth:`invalidate`
returns a way to the free pool.

The paper evaluates LRU and random replacement for the B-Cache
(Section 3.3) and uses LRU for the conventional set-associative
baselines (Figures 4, 5).
"""

from __future__ import annotations

import abc


class ReplacementPolicy(abc.ABC):
    """Tracks access recency/ordering for one replacement domain."""

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        self.ways = ways

    @abc.abstractmethod
    def touch(self, way: int) -> None:
        """Record a reference to ``way`` (hit or fill)."""

    @abc.abstractmethod
    def victim(self) -> int:
        """Return the way to evict next (does not modify state)."""

    @abc.abstractmethod
    def invalidate(self, way: int) -> None:
        """Forget any history for ``way`` making it preferred for eviction."""

    def victim_among(self, candidates: list[int]) -> int:
        """Return the best victim restricted to ``candidates``.

        The default implementation falls back to the unrestricted victim
        when it is a candidate and otherwise returns the first
        candidate.  Policies with a total order override this.
        """
        if not candidates:
            raise ValueError("candidates must be non-empty")
        preferred = self.victim()
        if preferred in candidates:
            return preferred
        return candidates[0]


class PolicyError(ValueError):
    """Raised for unknown policy names or invalid policy operations."""
