"""Batch kernels: batch ≡ per-access, bit for bit, for long and short
batches and for every column type the trace store hands out.

:mod:`repro.caches.columnar` converts the inputs the compiled kernels
(:mod:`repro.caches.native`) read, so these tests replay every factory
spec as one long batch and one short one, and hold both to a
per-access replay; the direct-mapped cases also check which kernel ran.

Reuses the spec list and stream generators of
``test_engine_equivalence`` — this file covers the *batch length and
column type* axes, that one covers the kernels' model state and
next-level streams.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.caches import columnar, make_cache, native
from test_engine_equivalence import (
    ALL_SPECS,
    kernel_path,
    mixed_trace,
    model_state,
    real_kernels,  # noqa: F401 - fixture re-export
    scalar_stats,
)

#: A short batch.
SHORT = 1023


def compiled_flavour() -> str:
    """What a batch reports on this host: the compiled kernels where
    they build, else the generic loop."""
    return "stdlib" if native.load() is None else "native"


class TestThreeWayEquivalence:
    """per-access == long batch == short batch, across every spec."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_mixed_stream(self, spec, real_kernels):
        addresses, kinds = mixed_trace(3000, seed=19)
        expected = scalar_stats(spec, addresses, kinds, seed=3)
        long_batch = make_cache(spec, seed=3)
        assert long_batch.access_trace(addresses, kinds) == expected
        expected = scalar_stats(spec, addresses[:SHORT], kinds[:SHORT], seed=3)
        short_batch = make_cache(spec, seed=3)
        assert short_batch.access_trace(addresses[:SHORT], kinds[:SHORT]) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_reads_only(self, spec, real_kernels):
        addresses, _ = mixed_trace(2048, seed=29)
        for length in (len(addresses), SHORT):
            expected = scalar_stats(spec, addresses[:length], None, seed=7)
            cache = make_cache(spec, seed=7)
            assert cache.access_trace(addresses[:length]) == expected

    @pytest.mark.parametrize("seed", (2, 3, 5, 7, 11))
    def test_dm_many_seeds(self, seed, real_kernels):
        """The direct-mapped kernel, hammered across streams."""
        addresses, kinds = mixed_trace(4096, seed=seed)
        expected = scalar_stats("dm", addresses, kinds)
        batch = make_cache("dm")
        assert batch.access_trace(addresses, kinds) == expected
        assert batch.last_kernel == compiled_flavour()

    def test_dm_internal_state_matches(self, real_kernels):
        """Not just stats: resident tags and dirty bits agree too."""
        addresses, kinds = mixed_trace(3000, seed=37)
        scalar = make_cache("dm")
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        batch = make_cache("dm")
        batch.access_trace(addresses, kinds)
        assert batch.last_kernel == compiled_flavour()
        assert model_state(batch) == model_state(scalar)
        assert batch.stats.set_hits == scalar.stats.set_hits
        assert batch.stats.set_misses == scalar.stats.set_misses

    def test_split_batches_across_kernels(self, real_kernels):
        """A batch on this host's kernels, then one on the path of a
        host without them, on the same cache == one per-access replay."""
        addresses, kinds = mixed_trace(2047, seed=41)
        expected = scalar_stats("dm", addresses, kinds)
        cache = make_cache("dm")
        cache.access_trace(addresses[:1024], kinds[:1024])
        assert cache.last_kernel == compiled_flavour()
        with kernel_path(fallback=True):
            cache.access_trace(addresses[1024:], kinds[1024:])
        assert cache.last_kernel == "stdlib"
        assert cache.stats == expected


class TestKernelSelection:
    def test_no_compiler_stays_on_stdlib(self, real_kernels):
        addresses, kinds = mixed_trace(SHORT, seed=13)
        cache = make_cache("dm")
        with kernel_path(fallback=True):
            cache.access_trace(addresses, kinds)
        assert cache.last_kernel == "stdlib"

    def test_wide_addresses_match_per_access(self, real_kernels):
        """Addresses at or above 2**63 keep their high bits in the
        direct-mapped tags."""
        addresses = [(1 << 63) + i * 64 for i in range(1024)]
        expected = scalar_stats("dm", addresses, None)
        cache = make_cache("dm")
        assert cache.access_trace(addresses) == expected
        assert cache.last_kernel == compiled_flavour()

    def test_dm_selects_native(self, real_kernels):
        if native.load() is None:
            pytest.skip("no C compiler: batches replay per access")
        addresses, _ = mixed_trace(1024, seed=17)
        cache = make_cache("dm")
        cache.access_trace(addresses)
        assert cache.last_kernel == "native"


class TestColumnarInputs:
    """Buffer-backed columns (the trace-store hand-off) work everywhere,
    read by their item type whatever its width."""

    @pytest.mark.parametrize("spec", ("dm", "8way", "mf8_bas8"))
    def test_array_and_memoryview_columns(self, spec, real_kernels):
        address_list, kind_list = mixed_trace(2048, seed=47)
        expected = scalar_stats(spec, address_list, kind_list)
        address_col = array("Q", address_list)
        kind_col = array("B", kind_list)
        from_arrays = make_cache(spec)
        assert from_arrays.access_trace(address_col, kind_col) == expected
        from_views = make_cache(spec)
        assert (
            from_views.access_trace(
                memoryview(address_col).toreadonly(),
                memoryview(kind_col).toreadonly(),
            )
            == expected
        )
        # Narrower items are converted by value, never reinterpreted as
        # uint64 (or, for kinds, uint8) bytes.
        narrow = array("I", address_list)
        wide_kinds = array("I", kind_list)
        for addresses, kinds in (
            (narrow, kind_col),
            (memoryview(narrow), memoryview(kind_col)),
            (narrow, wide_kinds),
        ):
            cache = make_cache(spec)
            assert cache.access_trace(addresses, kinds) == expected
        short = [address % (1 << 16) for address in address_list]
        cache = make_cache(spec)
        assert cache.access_trace(array("H", short), kind_col) == scalar_stats(
            spec, short, kind_list
        )

    def test_address_column_matches_values(self):
        addresses = array("Q", (i * 97 % (1 << 24) for i in range(2000)))
        for column in (addresses, memoryview(addresses), list(addresses),
                       array("I", addresses)):
            converted = columnar.address_column(column)
            assert converted.dtype == np.uint64
            assert converted.tolist() == addresses.tolist()

    def test_kind_column_matches_values(self):
        kinds = [i % 3 for i in range(1500)]
        for column in (array("B", kinds), bytes(kinds), memoryview(bytes(kinds)),
                       kinds, array("I", kinds)):
            converted = columnar.kind_column(column)
            assert converted.dtype == np.uint8
            assert converted.tolist() == kinds
