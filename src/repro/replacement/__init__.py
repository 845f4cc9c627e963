"""Replacement policies: LRU, random, FIFO and tree-PLRU.

The caches keep a policy's state in flat columns
(:class:`~repro.replacement.flat.Replacement`), which their compiled
kernels share.  The per-domain policy objects built by
:func:`make_policy` are the reference models those columns are tested
against.
"""

from __future__ import annotations

from repro.replacement.base import PolicyError, ReplacementPolicy
from repro.replacement.fifo import FIFOPolicy
from repro.replacement.flat import POLICIES, Replacement
from repro.replacement.lru import LRUPolicy
from repro.replacement.plru import TreePLRUPolicy
from repro.replacement.random_policy import RandomPolicy

_POLICIES: dict[str, type[ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "fifo": FIFOPolicy,
    "plru": TreePLRUPolicy,
}


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``, ``random``, ``fifo``, ``plru``).

    ``seed`` only affects the random policy; it is accepted (and
    ignored) for the others so callers can pass it uniformly.
    """
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise PolicyError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(ways, seed=seed)
    return cls(ways)


def policy_names() -> tuple[str, ...]:
    """Names accepted by :func:`make_policy`."""
    return tuple(sorted(_POLICIES))


__all__ = [
    "FIFOPolicy",
    "LRUPolicy",
    "POLICIES",
    "PolicyError",
    "RandomPolicy",
    "Replacement",
    "ReplacementPolicy",
    "TreePLRUPolicy",
    "make_policy",
    "policy_names",
]
