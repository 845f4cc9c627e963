"""Replacement state in flat columns, shared by a cache's per-access
``_access_block`` and its compiled kernel (``repro/caches/kernels.c``).

A replacement domain is one set of a set-associative cache or one row
of the B-Cache.  Way ``w`` of domain ``d`` owns one stamp, at
``d * ways + w`` (set-associative lines) or, ``by_way``, at
``w * domains + d`` (B-Cache set indices):

* **lru** — the clock at the way's last touch.  Fresh stamps list the
  ways in order (way ``w`` starts at ``-w``), so a cold domain fills
  its highest way first.
* **fifo** — the clock at the way's first touch, 0 until then.  The
  victim is the free way, else the earliest filled.
* **plru** — a free-way stamp as for fifo, plus ``ways`` tree bits per
  domain in ``tree`` (heap layout, node 1 the root, bit 0 pointing
  left, towards the pseudo-LRU leaf).
* **random** — a free-way stamp as for fifo, plus one CPython MT19937
  state per domain in ``mt`` (624 words and the index), seeded
  ``seed + d``; a draw is ``randrange(n)`` over the candidates.

fifo, plru and random take free ways first, lowest first.  The rules
are those of :class:`~repro.replacement.lru.LRUPolicy`,
:class:`~repro.replacement.fifo.FIFOPolicy`,
:class:`~repro.replacement.plru.TreePLRUPolicy` and
:class:`~repro.replacement.random_policy.RandomPolicy` driven with one
object per domain, which ``tests/test_replacement.py`` holds them to.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Sequence

from repro.replacement.base import PolicyError

#: Policy names in the kernels' encoding (their index).
POLICIES = ("lru", "fifo", "plru", "random")
LRU, FIFO, PLRU, RANDOM = range(4)

#: Words of one MT19937 state in ``mt``: 624 state words and the index.
MT_WORDS = 625


class Replacement:
    """One policy's state over ``domains`` domains of ``ways`` ways."""

    __slots__ = ("policy", "ways", "domains", "by_way", "stamps", "clock", "tree",
                 "mt", "_rng")

    def __init__(
        self, policy: str, ways: int, domains: int, seed: int = 0, by_way: bool = False
    ) -> None:
        name = policy.lower()
        if name not in POLICIES:
            raise PolicyError(
                f"unknown replacement policy {policy!r}; choose from {sorted(POLICIES)}"
            )
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        if name == "plru" and ways & (ways - 1):
            raise PolicyError(f"tree-PLRU requires power-of-two ways, got {ways}")
        self.policy = POLICIES.index(name)
        self.ways = ways
        self.domains = domains
        self.by_way = by_way
        self.clock = 0
        fresh = range(0, -ways, -1) if self.policy == LRU else [0] * ways
        if by_way:
            self.stamps = array("q")
            for stamp in fresh:
                self.stamps.extend(array("q", [stamp]) * domains)
        else:
            self.stamps = array("q", fresh) * domains
        self.tree = bytearray(domains * ways) if self.policy == PLRU else None
        self.mt: array[int] | None = None
        if self.policy == RANDOM:
            self.mt = array("I")
            for domain in range(domains):
                self.mt.extend(random.Random(seed + domain).getstate()[1])
            # Draws per access load one domain's words into this object.
            self._rng = random.Random(seed)

    def kernel_args(self) -> tuple[Any, ...]:
        """The policy's arguments to a compiled kernel."""
        return (self.policy, self.stamps, self.tree, self.mt)

    def _at(self, domain: int, way: int) -> int:
        if self.by_way:
            return way * self.domains + domain
        return domain * self.ways + way

    def _domain_stamps(self, domain: int) -> array[int]:
        if self.by_way:
            return self.stamps[domain::self.domains]
        return self.stamps[domain * self.ways:(domain + 1) * self.ways]

    def touch(self, domain: int, way: int) -> None:
        """A hit on or a fill of ``way`` of ``domain``."""
        at = self._at(domain, way)
        if self.policy == LRU or not self.stamps[at]:
            self.clock += 1
            self.stamps[at] = self.clock
        if self.tree is not None:
            base = domain * self.ways
            node = way + self.ways
            while node > 1:
                # Point the parent away from the touched child.
                self.tree[base + (node >> 1)] = ~node & 1
                node >>= 1

    def victim(self, domain: int, candidates: Sequence[int] | None = None) -> int:
        """The way of ``domain`` to evict next, among ``candidates``
        (in increasing order; default every way)."""
        if candidates is None:
            candidates = range(self.ways)
        stamps = self._domain_stamps(domain)
        if self.policy != LRU:
            for way in candidates:
                if not stamps[way]:
                    return way
            if self.policy == RANDOM:
                return candidates[self._draw(domain, len(candidates))]
            if self.policy == PLRU:
                return self._walk(domain, candidates)
        return min(candidates, key=stamps.__getitem__)

    def order(self, domain: int) -> tuple[int, ...]:
        """``domain``'s ways, most recently stamped first (LRU order)."""
        stamps = self._domain_stamps(domain)
        return tuple(sorted(range(self.ways), key=lambda way: -stamps[way]))

    def _draw(self, domain: int, n: int) -> int:
        assert self.mt is not None
        words = slice(domain * MT_WORDS, (domain + 1) * MT_WORDS)
        self._rng.setstate((3, tuple(self.mt[words]), None))
        pick = self._rng.randrange(n)
        self.mt[words] = array("I", self._rng.getstate()[1])
        return pick

    def _walk(self, domain: int, candidates: Sequence[int]) -> int:
        """The pseudo-LRU leaf, descending into the other subtree where
        the preferred one holds no candidate."""
        assert self.tree is not None
        ways, base, allowed = self.ways, domain * self.ways, set(candidates)
        node = 1
        while node < ways:
            node = (node << 1) | self.tree[base + node]
            low = high = node
            while low < ways:
                low, high = low << 1, (high << 1) | 1
            if allowed.isdisjoint(range(low - ways, high - ways + 1)):
                node ^= 1
        return node - ways
