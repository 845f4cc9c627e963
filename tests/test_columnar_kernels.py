"""Columnar batch kernels: batch ≡ per-access, bit for bit, on both
sides of the direct-mapped vector threshold.

:mod:`repro.caches.columnar` prepares the numpy columns every batch
kernel reads, and holds ``dm_batch``, the vectorised direct-mapped
kernel.  The direct-mapped cache keeps a Python loop beside it for
batches shorter than ``MIN_VECTOR_LEN`` and addresses at or above
2**63, so these tests replay every factory spec as one batch above the
threshold and one below it, and hold both to a per-access replay; the
direct-mapped cases also check which kernel ran.

Reuses the spec list and stream generators of
``test_engine_equivalence`` — this file covers the *batch length and
column type* axes, that one covers the kernels' model state and
next-level streams.
"""

from __future__ import annotations

from array import array

import pytest

from repro.caches import columnar, make_cache
from repro.caches.columnar import MIN_VECTOR_LEN
from test_engine_equivalence import (
    ALL_SPECS,
    mixed_trace,
    real_kernels,  # noqa: F401 - fixture re-export
    scalar_stats,
)


class TestThreeWayEquivalence:
    """per-access == long batch == short batch, across every spec."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_mixed_stream(self, spec, real_kernels):
        addresses, kinds = mixed_trace(3000, seed=19)
        assert len(addresses) >= MIN_VECTOR_LEN  # dm vector kernel engages
        expected = scalar_stats(spec, addresses, kinds, seed=3)
        long_batch = make_cache(spec, seed=3)
        assert long_batch.access_trace(addresses, kinds) == expected
        short = MIN_VECTOR_LEN - 1
        expected = scalar_stats(spec, addresses[:short], kinds[:short], seed=3)
        short_batch = make_cache(spec, seed=3)
        assert short_batch.access_trace(addresses[:short], kinds[:short]) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_reads_only(self, spec, real_kernels):
        addresses, _ = mixed_trace(2048, seed=29)
        for length in (len(addresses), MIN_VECTOR_LEN - 1):
            expected = scalar_stats(spec, addresses[:length], None, seed=7)
            cache = make_cache(spec, seed=7)
            assert cache.access_trace(addresses[:length]) == expected

    @pytest.mark.parametrize("seed", (2, 3, 5, 7, 11))
    def test_dm_many_seeds(self, seed, real_kernels):
        """The fully-vectorised dm kernel, hammered across streams."""
        addresses, kinds = mixed_trace(4096, seed=seed)
        expected = scalar_stats("dm", addresses, kinds)
        vectorised = make_cache("dm")
        assert vectorised.access_trace(addresses, kinds) == expected
        assert vectorised.last_kernel == "numpy"

    def test_dm_internal_state_matches(self, real_kernels):
        """Not just stats: resident tags and dirty bits agree too."""
        addresses, kinds = mixed_trace(3000, seed=37)
        scalar = make_cache("dm")
        for address, kind in zip(addresses, kinds):
            scalar.access(address, kind == 1)
        vectorised = make_cache("dm")
        vectorised.access_trace(addresses, kinds)
        assert vectorised.last_kernel == "numpy"
        assert vectorised._tags == scalar._tags
        assert vectorised._dirty == scalar._dirty
        assert vectorised.stats.set_hits == scalar.stats.set_hits
        assert vectorised.stats.set_misses == scalar.stats.set_misses

    def test_split_batches_across_kernels(self, real_kernels):
        """A batch split at the threshold: the vector kernel, then the
        loop on the same cache, == one per-access replay."""
        addresses, kinds = mixed_trace(2 * MIN_VECTOR_LEN - 1, seed=41)
        expected = scalar_stats("dm", addresses, kinds)
        cache = make_cache("dm")
        cache.access_trace(addresses[:MIN_VECTOR_LEN], kinds[:MIN_VECTOR_LEN])
        assert cache.last_kernel == "numpy"
        cache.access_trace(addresses[MIN_VECTOR_LEN:], kinds[MIN_VECTOR_LEN:])
        assert cache.last_kernel == "stdlib"
        assert cache.stats == expected


class TestKernelSelection:
    def test_short_batch_stays_on_stdlib(self, real_kernels):
        addresses, kinds = mixed_trace(MIN_VECTOR_LEN - 1, seed=13)
        cache = make_cache("dm")
        cache.access_trace(addresses, kinds)
        assert cache.last_kernel == "stdlib"

    def test_wide_addresses_fall_back(self, real_kernels):
        """Addresses at or above 2**63 collide with the tag sentinel;
        the vectorised kernel must refuse them, not mis-simulate."""
        addresses = [(1 << 63) + i * 64 for i in range(MIN_VECTOR_LEN)]
        expected = scalar_stats("dm", addresses, None)
        cache = make_cache("dm")
        assert columnar.dm_batch(cache, addresses, None) is False
        assert cache.access_trace(addresses) == expected
        assert cache.last_kernel == "stdlib"

    def test_dm_selects_numpy_at_threshold(self, real_kernels):
        addresses, _ = mixed_trace(MIN_VECTOR_LEN, seed=17)
        cache = make_cache("dm")
        cache.access_trace(addresses)
        assert cache.last_kernel == "numpy"


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

    def test_block_columns_match_scalar_math(self):
        addresses = array("Q", (i * 97 % (1 << 24) for i in range(2000)))
        for length in (0, 1, MIN_VECTOR_LEN - 1, len(addresses)):
            blocks, counts = columnar.block_columns(
                addresses[:length], offset_bits=5, index_mask=0x7F, num_sets=128
            )
            assert blocks == [address >> 5 for address in addresses[:length]]
            assert len(counts) == 128
            for set_index in range(128):
                expected = sum(1 for b in blocks if b & 0x7F == set_index)
                assert int(counts[set_index]) == expected

    def test_shifted_blocks_match_scalar_math(self):
        addresses = array("Q", (i * 1031 % (1 << 30) for i in range(1500)))
        for length in (0, 1, len(addresses)):
            blocks = columnar.shifted_blocks(addresses[:length], 6)
            assert blocks == [address >> 6 for address in addresses[:length]]
