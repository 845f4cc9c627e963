"""The batch fast path must be bit-identical to the per-access path.

``Cache.access_trace`` (and every ``_batch_trace`` override) exists
purely for speed: for any spec the factory can build and any reference
stream, the resulting :class:`CacheStats` — including the per-set
counters — must equal a per-access ``Cache.access`` replay exactly.

The global test sanitizer reroutes ``access_trace`` through the checked
per-access path, which would make these tests vacuous; the
``real_kernels`` fixture temporarily uninstalls it so the actual batch
kernels run.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.analysis.sanitizer import (
    SanitizedCache,
    global_sanitizer_installed,
    install_global_sanitizer,
    uninstall_global_sanitizer,
)
from repro.caches import (
    GroupAssociativeCache,
    PageColoringCache,
    SetAssociativeCache,
    make_cache,
)
from repro.caches.base import WRITEBACK, NextLevelStream
from repro.caches.columnar import MIN_VECTOR_LEN

#: Every spec family the factory understands (see make_cache's docs).
ALL_SPECS = (
    "dm",
    "fa",
    "column",
    "hac",
    "agac",
    "pagecolor",
    "2way",
    "4way",
    "8way",
    "victim4",
    "victim16",
    "mf2_bas2",
    "mf8_bas8",
    "mf16_bas4",
    "skew2",
    "pam2",
    "psa2",
)

#: Organisations with their own allocation-free kernel beyond dm/Nway,
#: with the policy each runs under.
KERNEL_CASES = (
    ("victim16", "lru"),
    ("column", "lru"),
    ("skew2", "lru"),
    ("skew4", "lru"),
    ("mf8_bas8", "lru"),
    ("mf8_bas8", "random"),
    ("agac", "lru"),
    ("pagecolor", "lru"),
    ("pam2", "lru"),
    ("pam4", "lru"),
    ("psa2", "lru"),
    ("psa4", "lru"),
)

#: Length of the streams :data:`KERNEL_CASES` replay.
KERNEL_LEN = 4000


def kernel_lengths():
    """Every :data:`KERNEL_CASES` spec at :data:`KERNEL_LEN` and at
    lengths below the dm vector threshold, where the set-associative and
    B-Cache kernels still build their columns with numpy (empty batches
    included); plain 4-way adds the exact-LRU and generic-policy loops
    of the set-associative kernel."""
    params = [
        pytest.param(spec, policy, KERNEL_LEN, id=f"{spec}-{policy}")
        for spec, policy in KERNEL_CASES
    ]
    params += [
        pytest.param(spec, policy, length, id=f"{spec}-{policy}-{length}")
        for spec, policy in KERNEL_CASES + (("4way", "lru"), ("4way", "random"))
        for length in (0, 1, MIN_VECTOR_LEN - 1)
    ]
    return params


@pytest.fixture
def real_kernels():
    """Run the actual batch kernels (not the sanitizer's checked loop)."""
    was_installed = global_sanitizer_installed()
    uninstall_global_sanitizer()
    yield
    if was_installed:
        install_global_sanitizer(check_interval=256)


def mixed_trace(n: int, seed: int) -> tuple[list[int], list[int]]:
    """A seeded read/write stream with reuse, conflicts and strides."""
    rng = random.Random(seed)
    hot = [rng.randrange(0, 1 << 20) for _ in range(32)]
    addresses, kinds = [], []
    for i in range(n):
        roll = rng.random()
        if roll < 0.5:
            address = rng.choice(hot)
        elif roll < 0.8:
            address = (i * 64) % (1 << 18)
        else:
            address = rng.randrange(0, 1 << 26)
        addresses.append(address)
        kinds.append(1 if rng.random() < 0.3 else 0)
    return addresses, kinds


def recoloring_trace() -> tuple[list[int], list[int]]:
    """A mixed stream around two pages thrashing one colour of a
    16 kB page-coloured cache (4 kB pages, so pages 0 and 4 share
    colour 0): the miss count crosses the recolour threshold."""
    addresses, kinds = mixed_trace(3000, seed=37)
    for i in range(0, 3000, 3):
        addresses[i] = (i // 3 % 2) * 4 * 4096 + (i // 6 % 8) * 32
    return addresses, kinds


class CountingOPD(OrderedDict):
    """An out-of-position directory that counts its overflow drops."""

    overflows = 0

    def popitem(self, last=True):
        self.overflows += 1
        return super().popitem(last)


def policy_states(policies) -> list[dict]:
    """Each replacement policy's attributes (a random policy's RNG as
    its state)."""
    states = []
    for policy in policies:
        state = dict(vars(policy))
        if "_rng" in state:
            state["_rng"] = state["_rng"].getstate()
        states.append(state)
    return states


def model_state(cache) -> dict:
    """Everything a batch kernel may mutate besides the statistics."""
    if isinstance(cache, GroupAssociativeCache):
        return {
            "blocks": cache._blocks,
            "dirty": cache._dirty,
            "sht": list(cache._sht),
            "opd": list(cache._opd.items()),
        }
    if isinstance(cache, PageColoringCache):
        return {
            "blocks": cache._blocks,
            "dirty": cache._dirty,
            "colors": cache._colors,
            "cml": list(cache._cml.items()),
            "color_pressure": cache._color_pressure,
            "miss_counter": cache._miss_counter,
            "last_recolor_at": cache._last_recolor_at,
            "page_recolors": cache._page_recolors,
            "recolored_pages": cache.recolored_pages,
        }
    if isinstance(cache, SetAssociativeCache):
        return {
            "tags": cache._tags,
            "dirty": cache._dirty,
            "policies": policy_states(cache._policies),
            "mru": getattr(cache, "_mru", None),
        }
    if hasattr(cache, "decoder"):
        return {
            "tags": cache._tags,
            "dirty": cache._dirty,
            "pd_values": cache.decoder._values,
            "programs": cache.decoder.programs,
            "searches": cache.decoder.searches,
            "policies": policy_states(cache._policies),
        }
    if hasattr(cache, "_buffer"):
        return {
            "tags": cache._tags,
            "dirty": cache._dirty,
            "buffer": list(cache._buffer.items()),
        }
    if hasattr(cache, "_rehash"):
        return {
            "blocks": cache._blocks,
            "dirty": cache._dirty,
            "rehash": cache._rehash,
        }
    return {
        "blocks": cache._blocks,
        "dirty": cache._dirty,
        "last_touch": cache._last_touch,
        "clock": cache._clock,
    }


def scalar_stats(spec: str, addresses, kinds, **kwargs):
    cache = make_cache(spec, **kwargs)
    access = cache.access
    if kinds is None:
        for address in addresses:
            access(address)
    else:
        for address, kind in zip(addresses, kinds):
            access(address, kind == 1)
    return cache.stats


class TestBatchEquivalence:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_mixed_stream(self, spec, real_kernels):
        addresses, kinds = mixed_trace(4000, seed=7)
        expected = scalar_stats(spec, addresses, kinds, seed=3)
        cache = make_cache(spec, seed=3)
        assert cache.access_trace(addresses, kinds) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_reads_only_default(self, spec, real_kernels):
        addresses, _ = mixed_trace(2500, seed=11)
        expected = scalar_stats(spec, addresses, None, seed=1)
        cache = make_cache(spec, seed=1)
        assert cache.access_trace(addresses) == expected

    @pytest.mark.parametrize("spec", ("dm", "8way", "mf8_bas8"))
    def test_random_policy(self, spec, real_kernels):
        addresses, kinds = mixed_trace(3000, seed=23)
        expected = scalar_stats(spec, addresses, kinds, policy="random", seed=9)
        cache = make_cache(spec, policy="random", seed=9)
        assert cache.access_trace(addresses, kinds) == expected

    @pytest.mark.parametrize("spec", ("mf2_bas2", "mf8_bas8"))
    def test_bcache_decoder_counters_match(self, spec, real_kernels):
        addresses, kinds = mixed_trace(3000, seed=5)
        scalar = make_cache(spec)
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        batch = make_cache(spec)
        batch.access_trace(addresses, kinds)
        assert batch.stats == scalar.stats
        assert batch.decoder.searches == scalar.decoder.searches
        assert batch.decoder.programs == scalar.decoder.programs
        batch.check_integrity()

    @pytest.mark.parametrize("spec", ("pam2", "psa2"))
    def test_way_prediction_counters_match(self, spec, real_kernels):
        """Way prediction keeps its slow-hit accounting in the kernel.

        The set-associative kernel never calls ``_access_block``; it
        applies the subclass's ``way_prediction`` rule instead, so the
        slow hits must not silently read zero.
        """
        addresses, kinds = mixed_trace(3000, seed=41)
        scalar = make_cache(spec)
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        batch = make_cache(spec)
        batch.access_trace(addresses, kinds)
        assert batch.stats == scalar.stats
        assert batch.stats.hits > batch.stats.slow_hits > 0
        assert batch.stats.slow_hit_cycles == scalar.stats.slow_hit_cycles

    def test_victim_buffer_counters_match(self, real_kernels):
        addresses, kinds = mixed_trace(3000, seed=43)
        scalar = make_cache("victim16")
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        batch = make_cache("victim16")
        batch.access_trace(addresses, kinds)
        assert batch.stats == scalar.stats
        assert batch.stats.slow_hits == scalar.stats.slow_hits > 0

    @pytest.mark.parametrize(("spec", "policy", "length"), kernel_lengths())
    def test_final_state_matches(self, spec, policy, length, real_kernels):
        """The kernels leave the model exactly as per-access replay does."""
        addresses, kinds = mixed_trace(length, seed=19)
        scalar = make_cache(spec, policy=policy, seed=4)
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        batch = make_cache(spec, policy=policy, seed=4)
        batch.access_trace(addresses, kinds)
        assert batch.stats == scalar.stats
        assert model_state(batch) == model_state(scalar)

    @pytest.mark.parametrize(("spec", "policy", "length"), kernel_lengths())
    def test_next_level_stream_matches(self, spec, policy, length, real_kernels):
        """A kernel's next-level output is the per-access recording."""
        addresses, kinds = mixed_trace(length, seed=29)
        scalar = make_cache(spec, policy=policy, seed=6)
        expected = NextLevelStream()
        access = expected.recording(scalar.access, addresses)
        for address, kind in zip(addresses, kinds):
            access(address, kind == 1)
        batch = make_cache(spec, policy=policy, seed=6)
        out = NextLevelStream()
        batch.access_trace(addresses, kinds, out)
        if length == KERNEL_LEN:
            assert WRITEBACK in expected.kinds
        assert out.positions == expected.positions
        assert out.addresses == expected.addresses
        assert out.kinds == expected.kinds
        assert batch.stats == scalar.stats

    @pytest.mark.parametrize(
        "spec",
        (
            "dm",
            "4way",
            "victim16",
            "column",
            "skew2",
            "mf8_bas8",
            "agac",
            "pagecolor",
            "pam2",
            "pam4",
            "psa2",
            "psa4",
        ),
    )
    def test_resumable_between_batches(self, spec, real_kernels):
        """Two batch calls == one; the kernel keeps state, not a copy."""
        addresses, kinds = mixed_trace(2000, seed=31)
        whole = make_cache(spec)
        whole.access_trace(addresses, kinds)
        split = make_cache(spec)
        split.access_trace(addresses[:777], kinds[:777])
        split.access_trace(addresses[777:], kinds[777:])
        assert split.stats == whole.stats

    @pytest.mark.parametrize(
        ("spec", "trace"),
        (
            ("pagecolor", recoloring_trace),
            ("agac", lambda: mixed_trace(3000, seed=53)),
        ),
    )
    def test_rare_paths_match(self, spec, trace, real_kernels):
        """The kernels' rare paths: a page recolour, an OPD overflow.

        The per-access replay counts the OPD overflows (the only
        ``popitem`` its directory sees; the mixed stream overflows the
        64-entry directory of a 16 kB AGAC hundreds of times), so each
        trace provably takes the path the kernel must reproduce.
        """
        addresses, kinds = trace()
        scalar = make_cache(spec)
        if spec == "agac":
            scalar._opd = CountingOPD()
        expected = NextLevelStream()
        access = expected.recording(scalar.access, addresses)
        for address, kind in zip(addresses, kinds):
            access(address, kind == 1)
        if spec == "agac":
            assert scalar._opd.overflows > 0
        else:
            assert scalar.recolored_pages > 0
        batch = make_cache(spec)
        out = NextLevelStream()
        batch.access_trace(addresses[:1500], kinds[:1500], out)
        rest = NextLevelStream()
        batch.access_trace(addresses[1500:], kinds[1500:], rest)
        assert batch.stats == scalar.stats
        assert model_state(batch) == model_state(scalar)
        assert out.positions + [p + 1500 for p in rest.positions] == expected.positions
        assert out.addresses + rest.addresses == expected.addresses
        assert out.kinds + rest.kinds == expected.kinds

    def test_iterables_are_accepted(self, real_kernels):
        addresses, _ = mixed_trace(500, seed=2)
        expected = scalar_stats("dm", addresses, None)
        cache = make_cache("dm")
        assert cache.access_trace(iter(addresses)) == expected

    def test_length_mismatch_rejected(self, real_kernels):
        cache = make_cache("dm")
        with pytest.raises(ValueError, match="kinds"):
            cache.access_trace([0x40, 0x80], [0])

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 1 << 22), st.integers(0, 2)),
            max_size=300,
        ),
        spec=st.sampled_from(
            (
                "dm",
                "2way",
                "8way",
                "fa",
                "mf8_bas8",
                "victim4",
                "column",
                "skew2",
                "skew4",
            )
        ),
    )
    def test_property_equivalence(self, data, spec):
        """Batch == scalar for arbitrary streams, any factory spec."""
        was_installed = global_sanitizer_installed()
        uninstall_global_sanitizer()
        try:
            addresses = [address for address, _ in data]
            kinds = [kind for _, kind in data]
            expected = scalar_stats(spec, addresses, kinds)
            cache = make_cache(spec)
            assert cache.access_trace(addresses, kinds) == expected
        finally:
            if was_installed:
                install_global_sanitizer(check_interval=256)


class TestSanitizerComposability:
    @pytest.mark.parametrize("spec", ("dm", "8way", "mf8_bas8"))
    def test_sanitized_wrapper_batch(self, spec, real_kernels):
        """SanitizedCache.access_trace checks every access, same stats."""
        addresses, kinds = mixed_trace(2000, seed=13)
        expected = scalar_stats(spec, addresses, kinds)
        checked = SanitizedCache(make_cache(spec), check_interval=64)
        assert checked.access_trace(addresses, kinds) == expected
        checked.finalize()

    def test_global_hook_intercepts_batch(self):
        """With the hook installed, access_trace runs the checked path.

        (No ``real_kernels`` fixture here on purpose: the suite-wide
        sanitizer is active, and stats must still be identical.)
        """
        if not global_sanitizer_installed():
            pytest.skip("suite runs with REPRO_SANITIZE=0")
        addresses, kinds = mixed_trace(1500, seed=17)
        expected_cache = make_cache("mf8_bas8")
        for address, kind in zip(addresses, kinds):
            expected_cache.access(address, kind == 1)
        cache = make_cache("mf8_bas8")
        assert cache.access_trace(addresses, kinds) == expected_cache.stats
