"""Property tests for the sanitizer.

Two directions, per the tooling's contract:

* **Soundness** — over random geometries and random access streams, a
  known-good cache never trips a single invariant, and the wrapped run
  is bit-identical to the unwrapped one.
* **Sensitivity** — a deliberately corrupted cache always trips.

Settings tiers follow the shared profile convention (see
``conftest.py``): stateful stream-replay tests run fewer, longer
examples than the plain structural ones.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizedCache, SanitizerError
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache
from repro.core.bcache import BCache
from repro.core.config import BCacheGeometry

# Tiered settings (SNIPPETS convention): stream replays are the
# expensive stateful tier, structural checks the standard tier.
STREAM_SETTINGS = settings(max_examples=40)
STANDARD_SETTINGS = settings(max_examples=100)

POWERS = [1, 2, 4, 8]


@st.composite
def bcache_geometries(draw) -> BCacheGeometry:
    line_size = draw(st.sampled_from([16, 32]))
    num_sets = draw(st.sampled_from([8, 16, 32, 64]))
    mapping_factor = draw(st.sampled_from(POWERS))
    associativity = draw(st.sampled_from(POWERS))
    return BCacheGeometry(
        num_sets * line_size,
        line_size,
        mapping_factor=mapping_factor,
        associativity=associativity,
    )


def streams(span_bits: int = 16):
    return st.lists(
        st.tuples(st.integers(0, (1 << span_bits) - 1), st.booleans()),
        max_size=300,
    )


@given(geometry=bcache_geometries(), stream=streams(), seed=st.integers(0, 3))
@STREAM_SETTINGS
def test_good_bcache_never_trips(geometry, stream, seed):
    plain = BCache(geometry, policy="lru", seed=seed)
    wrapped = SanitizedCache(
        BCache(geometry, policy="lru", seed=seed), check_interval=1
    )
    for address, is_write in stream:
        plain.access(address, is_write)
        wrapped.access(address, is_write)
    wrapped.finalize()
    assert wrapped.stats.as_dict() == plain.stats.as_dict()


@given(
    stream=streams(),
    ways=st.sampled_from(POWERS),
    policy=st.sampled_from(["lru", "fifo", "random", "plru"]),
    seed=st.integers(0, 3),
)
@STREAM_SETTINGS
def test_good_set_associative_never_trips(stream, ways, policy, seed):
    wrapped = SanitizedCache(
        SetAssociativeCache(1024, 32, ways=ways, policy=policy, seed=seed),
        check_interval=1,
    )
    for address, is_write in stream:
        wrapped.access(address, is_write)
    wrapped.finalize()


@given(stream=streams())
@STREAM_SETTINGS
def test_differential_never_diverges_on_correct_lru_caches(stream):
    for cache in (
        DirectMappedCache(512, 32),
        SetAssociativeCache(512, 32, ways=4),
        FullyAssociativeCache(256, 32),
    ):
        wrapped = SanitizedCache(cache, differential=True, check_interval=1)
        for address, is_write in stream:
            wrapped.access(address, is_write)
        wrapped.finalize()


@given(stream=streams(), geometry=bcache_geometries())
@STREAM_SETTINGS
def test_flushed_cache_is_reusable(stream, geometry):
    wrapped = SanitizedCache(BCache(geometry), check_interval=1)
    for address, is_write in stream:
        wrapped.access(address, is_write)
    wrapped.flush()
    for address, is_write in stream:
        wrapped.access(address, is_write)
    wrapped.finalize()


@given(stream=st.lists(st.integers(0, (1 << 14) - 1), min_size=8, max_size=200))
@STANDARD_SETTINGS
def test_corrupted_set_associative_always_detected(stream):
    cache = SetAssociativeCache(512, 32, ways=2)
    wrapped = SanitizedCache(cache, check_interval=1)
    for address in stream:
        wrapped.access(address)
    # Duplicate a valid tag into its neighbouring way: either the way
    # was empty (making a phantom duplicate) or it held a different
    # block (now a duplicated resident) — both corrupt.
    target = next(
        (i for i in range(cache.num_sets) if max(cache._tags[2 * i:2 * i + 2]) >= 0),
        None,
    )
    assume(target is not None)
    valid_way = 0 if cache._tags[2 * target] >= 0 else 1
    cache._tags[2 * target + 1 - valid_way] = cache._tags[2 * target + valid_way]
    with pytest.raises(SanitizerError):
        wrapped.checker.check_structure()


@given(stream=st.lists(st.integers(0, (1 << 14) - 1), min_size=1, max_size=200))
@STANDARD_SETTINGS
def test_dirty_invalid_line_always_detected(stream):
    cache = DirectMappedCache(512, 32)
    wrapped = SanitizedCache(cache, check_interval=1)
    for address in stream:
        wrapped.access(address)
    cache._tags[0] = -1  # forcibly invalidate without clearing dirty
    cache._dirty[0] = True
    with pytest.raises(SanitizerError):
        wrapped.checker.check_structure()


@given(geometry=bcache_geometries(), stream=streams(span_bits=14))
@STREAM_SETTINGS
def test_corrupted_pd_always_detected(geometry, stream):
    cache = BCache(geometry, seed=1)
    wrapped = SanitizedCache(cache, check_interval=1)
    for address, is_write in stream:
        wrapped.access(address, is_write)
    decoder = cache.decoder
    row = next(
        (
            r
            for r in range(geometry.num_rows)
            if len(decoder.invalid_clusters(r)) <= decoder.num_clusters - 2
        ),
        None,
    )
    assume(row is not None)
    base = row * decoder.num_clusters
    values = decoder._values
    first, second = [c for c in range(decoder.num_clusters) if values[base + c] >= 0][:2]
    values[base + second] = values[base + first]
    with pytest.raises(SanitizerError):
        wrapped.checker.check_structure()
