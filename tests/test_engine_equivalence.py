"""The batch fast path must be bit-identical to the per-access path.

``Cache.access_trace`` (and every ``_batch_trace`` override) exists
purely for speed: for any spec the factory can build and any reference
stream, the resulting :class:`CacheStats` — including the per-set
counters — must equal a per-access ``Cache.access`` replay exactly.

The global test sanitizer reroutes ``access_trace`` through the checked
per-access path, which would make these tests vacuous; the
``real_kernels`` fixture temporarily uninstalls it so the actual batch
kernels run.  Every batch runs the compiled kernels of
:mod:`repro.caches.native` where a C compiler exists;
:class:`TestFallbackEquivalence` runs every test again with the loader
returning ``None``, the path a host without one takes (the generic
kernel over ``_access_block``).
"""

from __future__ import annotations

import contextlib
import random
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from repro.caches import native
from repro.analysis.sanitizer import (
    SanitizedCache,
    global_sanitizer_installed,
    install_global_sanitizer,
    uninstall_global_sanitizer,
)
from repro.caches import (
    FullyAssociativeCache,
    GroupAssociativeCache,
    PageColoringCache,
    make_cache,
)
from repro.caches.base import WRITEBACK, NextLevelStream
from repro.core.bcache import BCache
from repro.core.config import BCacheGeometry
from repro.replacement import POLICIES
from tiers import DETERMINISM_SETTINGS

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

#: Organisations with their own compiled kernel, with the policy each
#: runs under (dm, victim, column and skew have no policy; hac is fifo).
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
    ("2way", "lru"),
    ("8way", "lru"),
    ("32way", "lru"),
    ("mf2_bas8", "lru"),
    ("mf16_bas4", "lru"),
    ("4way", "fifo"),
    ("4way", "plru"),
    ("dm", "lru"),
    ("victim4", "lru"),
    ("victim64", "lru"),
    ("hac", "fifo"),
    ("fa", "lru"),
    ("fa", "fifo"),
    ("fa", "plru"),
    ("fa", "random"),
    ("mf8_bas8", "fifo"),
    ("mf8_bas8", "plru"),
    ("mf2_bas8", "random"),
)

#: Length of the streams :data:`KERNEL_CASES` replay.
KERNEL_LEN = 4000


def kernel_lengths():
    """Every :data:`KERNEL_CASES` spec at :data:`KERNEL_LEN` and in short
    batches (empty ones included), plus 4-way under exact LRU and
    random."""
    params = [
        pytest.param(spec, policy, KERNEL_LEN, id=f"{spec}-{policy}")
        for spec, policy in KERNEL_CASES
    ]
    params += [
        pytest.param(spec, policy, length, id=f"{spec}-{policy}-{length}")
        for spec, policy in KERNEL_CASES + (("4way", "lru"), ("4way", "random"))
        for length in (0, 1, 1023)
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


#: The state attributes of the organisations with compiled kernels.
STATE = (
    "_tags", "_blocks", "_dirty", "_rehash", "_last_touch", "_clock", "_mru",
    "_buffer_blocks", "_buffer_dirty", "_buffer_stamps",
)


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
    state = {name: getattr(cache, name) for name in STATE if hasattr(cache, name)}
    replacement = getattr(cache, "_replacement", None)
    if replacement is not None:
        state["replacement"] = (
            replacement.stamps, replacement.clock, replacement.tree, replacement.mt,
        )
    if hasattr(cache, "decoder"):
        state["decoder"] = (
            cache.decoder._values, cache.decoder.programs, cache.decoder.searches,
        )
    return state


def assert_replays_match(cache, oracle, addresses, kinds, batches=1):
    """``cache`` replaying ``addresses`` in ``batches`` batch calls ends
    like ``oracle`` replaying them one access at a time: statistics,
    model state and next-level stream."""
    expected = NextLevelStream()
    access = expected.recording(oracle.access, addresses)
    for address, kind in zip(addresses, kinds):
        access(address, kind == 1)
    out = NextLevelStream()
    bounds = [len(addresses) * part // batches for part in range(batches + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        part = NextLevelStream()
        cache.access_trace(addresses[start:stop], kinds[start:stop], part)
        for position, address, kind in zip(part.positions, part.addresses, part.kinds):
            out.emit(position + start, address, kind)
    assert cache.stats == oracle.stats
    assert model_state(cache) == model_state(oracle)
    assert out.positions == expected.positions
    assert out.addresses == expected.addresses
    assert out.kinds == expected.kinds


def kernel_path(fallback: bool):
    """Within it, batches take the compiled kernels or, with
    ``fallback``, the path of a host without them."""
    if fallback:
        return mock.patch.object(native, "load", lambda: None)
    return contextlib.nullcontext()


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

    @DETERMINISM_SETTINGS
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
                "hac",
                "mf8_bas8",
                "victim4",
                "victim16",
                "column",
                "skew2",
                "skew4",
            )
        ),
        fallback=st.booleans(),
    )
    def test_property_equivalence(self, data, spec, fallback):
        """Batch == scalar for arbitrary streams, any factory spec."""
        was_installed = global_sanitizer_installed()
        uninstall_global_sanitizer()
        try:
            addresses = [address for address, _ in data]
            kinds = [kind for _, kind in data]
            expected = scalar_stats(spec, addresses, kinds)
            cache = make_cache(spec)
            with kernel_path(fallback):
                assert cache.access_trace(addresses, kinds) == expected
        finally:
            if was_installed:
                install_global_sanitizer(check_interval=256)


    @pytest.mark.parametrize("spec", ("4way", "mf8_bas8", "pam4", "psa4"))
    def test_fifty_way_split_matches(self, spec, real_kernels):
        """Fifty batches carry the LRU stamps and clock across calls."""
        addresses, kinds = mixed_trace(KERNEL_LEN, seed=59)
        assert_replays_match(
            make_cache(spec, seed=2), make_cache(spec, seed=2), addresses, kinds,
            batches=50,
        )

    def test_invalidated_pd_entries_match(self, real_kernels):
        """After PD entries are invalidated (fault injection drops the
        line with its entry), a PD miss prefers the least recent invalid
        entry over older valid ones, in the batch as per access."""
        addresses, kinds = mixed_trace(KERNEL_LEN, seed=67)
        caches = [make_cache("mf8_bas8"), make_cache("mf8_bas8")]
        for cache in caches:
            cache.access_trace(addresses[:2000], kinds[:2000])
            geometry = cache.geometry
            for row in range(0, geometry.num_rows, 3):
                cluster = row % geometry.num_clusters
                cache.decoder.invalidate(row, cluster)
                cache._tags[geometry.set_index(row, cluster)] = -1
                cache._dirty[geometry.set_index(row, cluster)] = False
        assert_replays_match(*caches, addresses[2000:], kinds[2000:])

    @pytest.mark.parametrize("policy", ("fifo", "plru", "random"))
    def test_invalidated_pd_entries_restrict_the_policy(self, policy, real_kernels):
        """After PD entries are invalidated, a PD miss chooses among the
        unprogrammed clusters under every policy (a random draw over
        them, a restricted tree walk), in the batch as per access."""
        addresses, kinds = mixed_trace(KERNEL_LEN, seed=67)
        caches = [make_cache("mf8_bas8", policy=policy, seed=8) for _ in range(2)]
        for cache in caches:
            cache.access_trace(addresses[:2000], kinds[:2000])
            geometry = cache.geometry
            for row in range(0, geometry.num_rows, 2):
                for cluster in (row % geometry.num_clusters, 7 - row % 4):
                    cache.decoder.invalidate(row, cluster)
                    cache._tags[geometry.set_index(row, cluster)] = -1
                    cache._dirty[geometry.set_index(row, cluster)] = False
        assert_replays_match(*caches, addresses[2000:], kinds[2000:])

    @pytest.mark.parametrize(
        "spec", ("2way", "8way", "mf8_bas8", "psa2", "dm", "victim16", "column", "skew2")
    )
    def test_addresses_above_two_to_the_63(self, spec, real_kernels):
        """Addresses at and above 2**63 keep their high bits, both in
        the cache state and in the writebacks sent below."""
        addresses, kinds = mixed_trace(KERNEL_LEN, seed=61)
        addresses = [
            address | (1 << 63) if i % 3 else address
            for i, address in enumerate(addresses)
        ]
        addresses[7] = (1 << 64) - 1
        assert_replays_match(
            make_cache(spec), make_cache(spec), addresses, kinds, batches=3
        )

    @pytest.mark.parametrize("spec", ("4way", "mf8_bas8", "fa"))
    def test_random_stream_continues_per_access(self, spec, real_kernels):
        """A batch, references one at a time, then a batch again: each
        side continues the MT19937 states the other left, so the mix
        ends exactly like a per-access replay, random draws included."""
        addresses, kinds = mixed_trace(KERNEL_LEN, seed=73)
        oracle = make_cache(spec, policy="random", seed=5)
        for address, kind in zip(addresses, kinds):
            oracle.access(address, kind == 1)
        cache = make_cache(spec, policy="random", seed=5)
        cache.access_trace(addresses[:1500], kinds[:1500])
        for address, kind in zip(addresses[1500:2500], kinds[1500:2500]):
            cache.access(address, kind == 1)
        cache.access_trace(addresses[2500:], kinds[2500:])
        assert cache.stats == oracle.stats
        assert model_state(cache) == model_state(oracle)
        # The stream moved: the replay drew random victims.
        fresh = make_cache(spec, policy="random", seed=5)._replacement.mt
        assert cache._replacement.mt != fresh

    @DETERMINISM_SETTINGS
    @given(
        data=st.data(),
        line_bits=st.integers(2, 6),
        set_bits=st.integers(0, 7),
        ways_bits=st.integers(0, 4),
        mf_bits=st.integers(0, 4),
        prediction=st.sampled_from(("", "pam", "psa")),
        policy=st.sampled_from(POLICIES),
        batches=st.integers(1, 5),
        fallback=st.booleans(),
    )
    def test_property_geometries(
        self, data, line_bits, set_bits, ways_bits, mf_bits, prediction, policy,
        batches, fallback,
    ):
        """Batch == per-access over random geometries and policies:
        set-associative size, line and ways (with either way
        prediction), fully associative, B-Cache MF and BAS, and the
        direct-mapped, victim-buffer, column- and skewed-associative
        caches; statistics, final state and next-level stream."""
        size = 1 << (line_bits + set_bits + ways_bits)
        line_size = 1 << line_bits
        organisation = data.draw(
            st.sampled_from(("bcache", "set-associative", "fa", "dm", "victim",
                             "column", "skew2")),
            label="organisation",
        )
        # Column- and skewed-associative caches index at least two sets.
        assume(organisation != "column" or set_bits + ways_bits >= 1)
        assume(organisation != "skew2" or set_bits + ways_bits >= 2)
        if organisation == "bcache":
            geometry = BCacheGeometry(
                size, line_size, mapping_factor=1 << mf_bits,
                associativity=1 << ways_bits,
            )

            def build():
                return BCache(geometry, policy=policy, seed=3)
        elif organisation == "fa":

            def build():
                return FullyAssociativeCache(size, line_size, policy=policy, seed=3)
        else:
            spec = {
                "set-associative": (
                    f"{prediction}{1 << ways_bits}" if prediction
                    else f"{1 << ways_bits}way"
                ),
                "victim": f"victim{1 << ways_bits}",
            }.get(organisation, organisation)

            def build():
                return make_cache(
                    spec, size=size, line_size=line_size, policy=policy, seed=3
                )
        refs = data.draw(
            st.lists(
                st.tuples(st.integers(0, size << 3), st.integers(0, 2)),
                max_size=200,
            ),
            label="refs",
        )
        was_installed = global_sanitizer_installed()
        uninstall_global_sanitizer()
        try:
            with kernel_path(fallback):
                assert_replays_match(
                    build(), build(), [a for a, _ in refs], [k for _, k in refs],
                    batches=batches,
                )
        finally:
            if was_installed:
                install_global_sanitizer(check_interval=256)


class TestFallbackEquivalence(TestBatchEquivalence):
    """Every batch-equivalence test again, on a host without the
    compiled kernels: exact LRU then replays per access."""

    @pytest.fixture(autouse=True)
    def no_compiled_kernels(self, monkeypatch):
        monkeypatch.setattr(native, "load", lambda: None)

    # The property tests draw the kernel path themselves (hypothesis
    # runs one test function under one class only).
    test_property_equivalence = None  # type: ignore[assignment]
    test_property_geometries = None  # type: ignore[assignment]


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
