"""Build any evaluated cache organisation from a compact spec string.

The experiment harnesses describe configurations the way the paper's
figure legends do — ``"dm"``, ``"2way"``, ``"8way"``, ``"victim16"``,
``"mf8_bas8"``, ``"column"``, ``"skew2"``, ``"hac"`` — and this factory
turns a spec plus a cache size into a ready simulator.
"""

from __future__ import annotations

import re

from repro.caches.base import Cache
from repro.caches.column_associative import ColumnAssociativeCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.group_associative import GroupAssociativeCache
from repro.caches.hac import HighlyAssociativeCache
from repro.caches.page_coloring import PageColoringCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.skewed_associative import SkewedAssociativeCache
from repro.caches.victim import VictimBufferCache
from repro.caches.way_predicting import (
    PartialAddressMatchingCache,
    PredictiveSequentialCache,
)

_WAYS_RE = re.compile(r"^(\d+)way$")
_VICTIM_RE = re.compile(r"^victim(\d+)$")
_BCACHE_RE = re.compile(r"^mf(\d+)_bas(\d+)$")
_SKEW_RE = re.compile(r"^skew(\d+)$")
_PAM_RE = re.compile(r"^pam(\d+)$")
_PSA_RE = re.compile(r"^psa(\d+)$")


class UnknownCacheSpecError(ValueError):
    """Raised for a spec string the factory does not recognise."""


def make_cache(
    spec: str,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
    seed: int = 0,
) -> Cache:
    """Instantiate a cache from a legend-style spec string.

    Recognised specs:
        ``dm``                  direct-mapped baseline
        ``<N>way``              N-way set-associative (LRU by default)
        ``fa``                  fully associative
        ``victim<N>``           direct-mapped + N-entry victim buffer
        ``mf<M>_bas<B>``        B-Cache with MF=M, BAS=B
        ``column``              column-associative
        ``skew<N>``             N-way skewed-associative
        ``hac``                 highly associative CAM-tag cache
        ``agac``                adaptive group-associative cache
        ``pagecolor``           direct-mapped + OS page recolouring
        ``pam<N>``              N-way with partial-address way prediction
        ``psa<N>``              N-way predictive sequential associative
    """
    spec = spec.strip().lower()
    if spec == "dm":
        return DirectMappedCache(size, line_size)
    if spec == "fa":
        return FullyAssociativeCache(size, line_size, policy=policy, seed=seed)
    if spec == "column":
        return ColumnAssociativeCache(size, line_size)
    if spec == "hac":
        return HighlyAssociativeCache(size, line_size, seed=seed)
    if spec == "agac":
        return GroupAssociativeCache(size, line_size)
    if spec == "pagecolor":
        return PageColoringCache(size, line_size)
    match = _PAM_RE.match(spec)
    if match:
        return PartialAddressMatchingCache(
            size, line_size, ways=int(match.group(1)), policy=policy, seed=seed
        )
    match = _PSA_RE.match(spec)
    if match:
        return PredictiveSequentialCache(
            size, line_size, ways=int(match.group(1)), policy=policy, seed=seed
        )
    match = _WAYS_RE.match(spec)
    if match:
        return SetAssociativeCache(
            size, line_size, ways=int(match.group(1)), policy=policy, seed=seed
        )
    match = _VICTIM_RE.match(spec)
    if match:
        return VictimBufferCache(size, line_size, victim_entries=int(match.group(1)))
    match = _BCACHE_RE.match(spec)
    if match:
        # Imported lazily: repro.core depends on repro.caches.base, so a
        # module-level import here would be circular.
        from repro.core.bcache import BCache
        from repro.core.config import BCacheGeometry

        geometry = BCacheGeometry(
            size,
            line_size,
            mapping_factor=int(match.group(1)),
            associativity=int(match.group(2)),
        )
        return BCache(geometry, policy=policy, seed=seed)
    match = _SKEW_RE.match(spec)
    if match:
        return SkewedAssociativeCache(size, line_size, ways=int(match.group(1)))
    raise UnknownCacheSpecError(f"unrecognised cache spec {spec!r}")


#: Configurations plotted in Figures 4 and 5 (in legend order).
FIGURE45_SPECS = (
    "2way",
    "4way",
    "8way",
    "32way",
    "victim16",
    "mf2_bas8",
    "mf4_bas8",
    "mf8_bas8",
    "mf16_bas8",
)

#: Configurations plotted in Figure 12 (8 kB and 32 kB study).
FIGURE12_SPECS = (
    "2way",
    "4way",
    "8way",
    "victim16",
    "mf2_bas4",
    "mf4_bas4",
    "mf8_bas4",
    "mf16_bas4",
    "mf2_bas8",
    "mf4_bas8",
    "mf8_bas8",
    "mf16_bas8",
)

#: Configurations compared in Figures 8 and 9 (IPC / energy).
FIGURE89_SPECS = ("2way", "4way", "8way", "mf8_bas8", "victim16")
