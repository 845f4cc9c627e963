"""Way-predicting set-associative caches — Section 7.2's prior art.

Two latency-reduction techniques for set-associative caches that the
paper contrasts with the B-Cache:

* **Partial address matching** (Liu): the tag store is split into a
  Partial Address Directory (a few low tag bits) and a Main Directory.
  The PAD picks the predicted way fast; the MD verifies.  A wrong
  prediction costs a second cycle.
* **Predictive sequential associative cache** (Calder et al.): probe
  the MRU-predicted way first; on a first-probe miss, probe the rest
  sequentially — hits in a non-predicted way take extra cycles.

Both reach a set-associative miss rate but with *variable hit
latency*, which "disrupts the datapath pipeline" (Section 2.1) — the
property the B-Cache's constant one-cycle hit avoids.  The models here
charge each slow hit its extra cycles (``AccessResult.extra_cycles``)
so the latency comparison experiment can quantify that argument.
"""

from __future__ import annotations

from array import array

from repro.caches.base import AccessResult
from repro.caches.set_associative import SetAssociativeCache


class PartialAddressMatchingCache(SetAssociativeCache):
    """Set-associative cache with PAD-based way prediction.

    The PAD holds ``pad_bits`` low tag bits per way.  A lookup compares
    the address's partial tag against every way's PAD entry; if exactly
    one way matches it is predicted and, when the full tag verifies,
    the access completes in one cycle.  Multiple PAD matches or a
    mispredicted way cost a second cycle.
    """

    #: A multiple or wrong PAD match costs one extra cycle.
    has_slow_hits = True
    #: The compiled kernel and its rule for this class's ``_access_block``.
    kernel = "set_associative"
    way_prediction = "pam"

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        pad_bits: int = 5,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(
            size, line_size, ways=ways, policy=policy, seed=seed,
            name=name or f"PAM-{size // 1024}kB-{ways}way",
        )
        if pad_bits < 1:
            raise ValueError("pad_bits must be >= 1")
        self.pad_bits = pad_bits
        self._pad_mask = (1 << pad_bits) - 1

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        partial = tag & self._pad_mask
        base = index * self.ways
        tags = self._tags[base:base + self.ways]
        pad_matches = [
            way
            for way in range(self.ways)
            if tags[way] >= 0 and (tags[way] & self._pad_mask) == partial
        ]
        result = super()._access_block(block, is_write)
        # Unique PAD match that is also the right way: fast hit.
        if result.hit and not (len(pad_matches) == 1 and tags[pad_matches[0]] == tag):
            return AccessResult(hit=True, set_index=result.set_index, extra_cycles=1)
        return result


class PredictiveSequentialCache(SetAssociativeCache):
    """MRU way prediction with sequential fallback probes.

    Tracks, per set, the most recently used way; a hit there is fast,
    a hit anywhere else charges one extra cycle per extra way probed.
    """

    #: A hit outside the predicted way costs its extra probes.
    has_slow_hits = True
    #: The compiled kernel and its rule for this class's ``_access_block``.
    kernel = "set_associative"
    way_prediction = "psa"

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(
            size, line_size, ways=ways, policy=policy, seed=seed,
            name=name or f"PSA-{size // 1024}kB-{ways}way",
        )

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        base = index * self.ways
        predicted = self._mru[index]
        result = super()._access_block(block, is_write)
        # Hit or refill, the block's way is now the set's MRU way.
        way = self._tags.index(block >> self.index_bits, base, base + self.ways) - base
        self._mru[index] = way
        if result.hit and way != predicted:
            # Probe order: predicted way first, then the others in way
            # order — each probe before the hit way is a cycle.
            order = [predicted] + [w for w in range(self.ways) if w != predicted]
            return AccessResult(hit=True, set_index=index, extra_cycles=order.index(way))
        return result

    def _flush_state(self) -> None:
        super()._flush_state()
        # Way 0 is also the most recent way of a fresh LRU order, so
        # under LRU the prediction is always the set's most recently
        # used way.  The compiled kernel updates this column in place.
        self._mru = array("q", [0]) * self.num_sets
