"""Tests for the on-disk trace store."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.engine.trace_store import (
    CRC_BYTES,
    TraceStore,
    TraceStoreError,
    default_store,
    set_default_store,
)
from repro.workloads.spec2k import get_profile

#: Blobs and entries written by an earlier build of the stores.
FORMATS = Path(__file__).resolve().parent / "fixtures" / "formats"


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", memory_entries=4)


class TestAddresses:
    def test_matches_profile(self, store):
        blob = store.addresses("gzip", "data", 300, 1)
        assert list(blob) == list(get_profile("gzip").data_addresses(300, 1))

    def test_returns_readonly_u64_view(self, store):
        blob = store.addresses("gcc", "instr", 200, 2)
        assert isinstance(blob, memoryview) and blob.format == "Q"
        assert blob.readonly
        assert len(blob) == 200
        with pytest.raises(TypeError):
            blob[0] = 1  # handing out a mutable cache entry corrupts the LRU

    def test_persists_on_disk(self, store):
        store.addresses("gzip", "data", 250, 1)
        path = store.address_path("gzip", "data", 250, 1)
        assert path.is_file() and path.stat().st_size == 8 * 250 + CRC_BYTES

    def test_second_process_reloads(self, store, tmp_path):
        first = store.addresses("gzip", "data", 250, 1)
        fresh = TraceStore(tmp_path / "traces")  # same root, cold memory
        reloaded = fresh.addresses("gzip", "data", 250, 1)
        assert reloaded == first
        assert fresh.disk_hits == 1 and fresh.disk_misses == 0

    def test_memory_lru_returns_same_backing_object(self, store):
        first = store.addresses("gzip", "data", 100, 1)
        second = store.addresses("gzip", "data", 100, 1)
        assert first.obj is second.obj  # fresh views over one cached blob

    def test_memory_lru_bounded(self, store):
        for seed in range(6):  # memory_entries=4
            store.addresses("gzip", "data", 50, seed)
        assert len(store._memory) == 4

    def test_truncated_blob_regenerates(self, store):
        expected = list(store.addresses("gzip", "data", 200, 1))
        path = store.address_path("gzip", "data", 200, 1)
        path.write_bytes(path.read_bytes()[:-8])  # corrupt: drop a record
        store.clear_memory()
        again = store.addresses("gzip", "data", 200, 1)
        assert list(again) == expected
        assert path.stat().st_size == 8 * 200 + CRC_BYTES

    def test_unknown_side_rejected(self, store):
        with pytest.raises(TraceStoreError, match="side"):
            store.addresses("gzip", "combined", 100, 1)

    def test_different_seeds_differ(self, store):
        assert store.addresses("gzip", "data", 200, 1) != store.addresses(
            "gzip", "data", 200, 2
        )


class TestAccesses:
    def test_pair_shapes(self, store):
        addresses, kinds = store.accesses("gzip", "data", 300, 1)
        assert addresses.format == "Q" and kinds.format == "B"
        assert addresses.readonly and kinds.readonly
        assert len(addresses) == len(kinds) == 300

    def test_matches_profile_stream(self, store):
        addresses, kinds = store.accesses("gcc", "instr", 150, 3)
        expected = list(get_profile("gcc").instruction_trace(150, 3))
        assert list(addresses) == [a.address for a in expected]
        assert list(kinds) == [int(a.kind) for a in expected]

    def test_combined_side_length_from_blob(self, store):
        addresses, kinds = store.accesses("gzip", "combined", 200, 1)
        assert len(addresses) == len(kinds) >= 200  # >= one ifetch per instr
        fresh = TraceStore(store.root)
        again_addresses, again_kinds = fresh.accesses("gzip", "combined", 200, 1)
        assert again_addresses == addresses and again_kinds == kinds
        assert fresh.disk_hits == 1

    def test_stale_pair_regenerates(self, store):
        addresses, kinds = store.accesses("gzip", "data", 100, 1)
        store.kind_path("gzip", "data", 100, 1).write_bytes(b"\x00")  # stale
        store.clear_memory()
        again_addresses, again_kinds = store.accesses("gzip", "data", 100, 1)
        assert again_addresses == addresses and again_kinds == kinds


class TestMaintenance:
    def test_ensure_materialises_without_memory(self, store):
        path = store.ensure("gzip", "data", 120, 1)
        assert path.is_file()
        assert not store._memory  # prewarm must not pin blobs

    def test_ensure_with_kinds(self, store):
        store.ensure("gzip", "data", 120, 1, kinds=True)
        assert store.kind_path("gzip", "data", 120, 1).is_file()

    def test_wipe(self, store):
        store.addresses("gzip", "data", 100, 1)
        store.accesses("gzip", "data", 100, 1)
        assert store.wipe() == 3  # 2 address blobs + 1 kind blob
        assert not any(store.root.iterdir())


class TestCorruptionHardening:
    def test_bitflip_quarantined_and_regenerated(self, store):
        expected = list(store.addresses("gzip", "data", 200, 1))
        path = store.address_path("gzip", "data", 200, 1)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF  # bit rot in the payload; size stays right
        path.write_bytes(bytes(data))
        store.clear_memory()
        again = store.addresses("gzip", "data", 200, 1)
        assert list(again) == expected
        assert store.quarantined == 1
        assert (store.quarantine_root / path.name).is_file()
        # The regenerated blob is clean: a fresh load verifies.
        fresh = TraceStore(store.root)
        assert list(fresh.addresses("gzip", "data", 200, 1)) == expected
        assert fresh.quarantined == 0

    def test_corrupt_footer_quarantined(self, store):
        store.addresses("gzip", "data", 150, 1)
        path = store.address_path("gzip", "data", 150, 1)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # damage the CRC footer itself
        path.write_bytes(bytes(data))
        store.clear_memory()
        assert len(store.addresses("gzip", "data", 150, 1)) == 150
        assert store.quarantined == 1

    def test_truncation_quarantined(self, store):
        expected = list(store.addresses("gzip", "data", 100, 1))
        path = store.address_path("gzip", "data", 100, 1)
        path.write_bytes(path.read_bytes()[:17])  # torn write
        store.clear_memory()
        assert list(store.addresses("gzip", "data", 100, 1)) == expected
        assert store.quarantined == 1

    def test_corrupt_kind_blob_regenerates_pair(self, store):
        addresses, kinds = store.accesses("gzip", "data", 120, 1)
        kind_path = store.kind_path("gzip", "data", 120, 1)
        data = bytearray(kind_path.read_bytes())
        data[0] ^= 0xFF
        kind_path.write_bytes(bytes(data))
        store.clear_memory()
        again_addresses, again_kinds = store.accesses("gzip", "data", 120, 1)
        assert again_addresses == addresses and again_kinds == kinds
        assert store.quarantined >= 1

    def test_missing_blob_regenerates_silently(self, store):
        expected = list(store.addresses("gzip", "data", 80, 1))
        store.address_path("gzip", "data", 80, 1).unlink()
        store.clear_memory()
        assert list(store.addresses("gzip", "data", 80, 1)) == expected
        assert store.quarantined == 0  # absence is not corruption

    def test_wipe_clears_quarantine(self, store):
        store.addresses("gzip", "data", 90, 1)
        path = store.address_path("gzip", "data", 90, 1)
        path.write_bytes(b"garbage")
        store.clear_memory()
        store.addresses("gzip", "data", 90, 1)
        assert (store.quarantine_root).is_dir()
        store.wipe()
        assert not any(store.root.iterdir())

    def test_fsync_escape_hatch_still_writes(self, tmp_path):
        store = TraceStore(tmp_path / "nofsync", fsync=False)
        blob = store.addresses("gzip", "data", 60, 1)
        fresh = TraceStore(tmp_path / "nofsync")
        assert fresh.addresses("gzip", "data", 60, 1) == blob
        assert fresh.disk_hits == 1


class TestOnDiskFormat:
    def test_loads_and_rewrites_an_earlier_blob(self, tmp_path):
        name = "gzip_data_adr_n16_s2006.addr.u64"
        old = TraceStore(tmp_path / "old")
        old.root.mkdir()
        shutil.copy(FORMATS / name, old.root / name)
        assert list(old.addresses("gzip", "data", 16, 2006)) == list(
            get_profile("gzip").data_addresses(16, 2006)
        )
        assert (old.disk_hits, old.disk_misses, old.quarantined) == (1, 0, 0)
        new = TraceStore(tmp_path / "new", fsync=False)
        new.ensure("gzip", "data", 16, 2006)
        assert (new.root / name).read_bytes() == (FORMATS / name).read_bytes()


class TestDefaultStore:
    def test_set_and_restore(self, tmp_path):
        mine = TraceStore(tmp_path / "mine")
        previous = set_default_store(mine)
        try:
            assert default_store() is mine
        finally:
            set_default_store(previous)
        assert default_store() is previous
