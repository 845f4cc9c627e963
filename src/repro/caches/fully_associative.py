"""Fully associative cache.

The limiting case of the B-Cache: a fully associative cache "uses the
whole tag as the decoding index" (Section 2.3), i.e. its decoder is
entirely programmable (the HAC of Section 6.7 is the subarray-
partitioned version of the same idea).
"""

from __future__ import annotations

from repro.caches.set_associative import SetAssociativeCache


class FullyAssociativeCache(SetAssociativeCache):
    """A single set holding every block; any block can live anywhere."""

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        num_blocks = size // line_size
        super().__init__(
            size, line_size, ways=num_blocks, policy=policy, seed=seed,
            name=name or f"FA-{num_blocks}entry",
        )
