"""Shared-memory trace segments: registry lifecycle and leak gates.

The :class:`~repro.engine.shm.SharedTraceRegistry` owns every exported
segment; workers only attach.  These tests pin the ownership contract:
idempotent export and force-unlink, zero-copy read-only views,
the store's memory → shared → disk tier order, and — the part chaos
runs assert on — that no ``bcrepro-*`` segment survives a sweep, a
fault-injected worker crash, or a shard-pool shutdown.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine import shm
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.engine.runner import SweepJob, run_sweep
from repro.engine.shm import SharedTraceRegistry, attach_views, trace_key
from repro.engine.trace_store import TraceStore


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", memory_entries=8)


@pytest.fixture(autouse=True)
def no_leaks_before_or_after():
    assert shm.leaked_segments() == [], "segments leaked by an earlier test"
    yield
    assert shm.leaked_segments() == [], "this test leaked segments"


class TestRegistryLifecycle:
    def test_export_creates_named_segment(self, store):
        with SharedTraceRegistry() as registry:
            name, count = registry.export(store, "gzip", "data", 500, 1, False)
            assert name.startswith(shm.SEGMENT_PREFIX)
            assert count == 500
            assert shm.leaked_segments() == [name]
            assert len(registry) == 1

    def test_export_is_idempotent_per_key(self, store):
        with SharedTraceRegistry() as registry:
            first = registry.export(store, "gzip", "data", 400, 1, False)
            second = registry.export(store, "gzip", "data", 400, 1, False)
            assert first == second
            assert len(registry) == 1

    def test_unlink_all_is_idempotent(self, store):
        registry = SharedTraceRegistry()
        registry.export(store, "gzip", "data", 300, 1, False)
        registry.export(store, "gcc", "data", 300, 1, False)
        assert registry.unlink_all() == 2
        assert registry.unlink_all() == 0
        assert shm.leaked_segments() == []

    def test_manifest_is_picklable_shape(self, store):
        import pickle

        with SharedTraceRegistry() as registry:
            registry.export(store, "gzip", "data", 200, 1, True)
            manifest = registry.manifest()
            assert pickle.loads(pickle.dumps(manifest)) == manifest
            ((key, (name, count)),) = manifest.items()
            assert key == ("gzip", "data", 200, 1, "acc")
            assert isinstance(name, str) and count >= 200


class TestStaleReaper:
    """SIGKILLed owners cannot unlink; the next engine start must."""

    def _fake_segment(self, pid: int) -> str:
        import pathlib

        name = f"{shm.SEGMENT_PREFIX}-{pid}-1-deadbeef"
        pathlib.Path(shm.SHM_DIR, name).write_bytes(b"\x00" * 64)
        return name

    def _dead_pid(self) -> int:
        import subprocess
        import sys

        # A real dead pid: spawn-and-wait (which reaps) guarantees the
        # pid no longer exists, so os.kill(pid, 0) raises.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_dead_owner_segment_is_reaped(self):
        name = self._fake_segment(self._dead_pid())
        assert shm.leaked_segments() == [name]
        assert shm.reap_stale_segments() == [name]
        assert shm.leaked_segments() == []

    def test_live_owner_segment_survives(self):
        import os
        import pathlib

        name = self._fake_segment(os.getpid())
        try:
            assert shm.reap_stale_segments() == []
            assert shm.leaked_segments() == [name]
        finally:
            pathlib.Path(shm.SHM_DIR, name).unlink()

    def test_registry_init_heals_dead_owner_leftovers(self, store):
        self._fake_segment(self._dead_pid())
        with SharedTraceRegistry() as registry:  # __init__ reaps
            registry.export(store, "gzip", "data", 100, 1, False)
            assert len(shm.leaked_segments()) == 1  # only our own
        assert shm.leaked_segments() == []

    def test_run_sweep_heals_dead_owner_leftovers(self, store):
        self._fake_segment(self._dead_pid())
        stats = run_sweep(
            [SweepJob(spec="dm", benchmark="gzip", n=1000)],
            workers=1,
            store=store,
        )
        assert stats[0].accesses == 1000
        assert shm.leaked_segments() == []

    def test_unparseable_names_left_alone(self):
        import pathlib

        name = f"{shm.SEGMENT_PREFIX}-notapid"
        path = pathlib.Path(shm.SHM_DIR, name)
        path.write_bytes(b"\x00")
        try:
            assert shm.reap_stale_segments() == []
            assert name in shm.leaked_segments()
        finally:
            path.unlink()


class TestAttachViews:
    def test_zero_copy_readonly_columns(self, store):
        with SharedTraceRegistry() as registry:
            name, count = registry.export(store, "gzip", "data", 600, 1, False)
            segment, addresses, kinds = attach_views(name, count, False)
            try:
                assert kinds is None
                assert addresses.format == "Q" and addresses.readonly
                assert list(addresses) == list(
                    store.addresses("gzip", "data", 600, 1)
                )
                with pytest.raises(TypeError):
                    addresses[0] = 1
            finally:
                del addresses
                segment.close()

    def test_kinds_flavour_carries_both_columns(self, store):
        with SharedTraceRegistry() as registry:
            name, count = registry.export(store, "gcc", "data", 400, 2, True)
            segment, addresses, kinds = attach_views(name, count, True)
            try:
                expected_a, expected_k = store.accesses("gcc", "data", 400, 2)
                assert list(addresses) == list(expected_a)
                assert list(kinds) == list(expected_k)
            finally:
                del addresses, kinds
                segment.close()

    def test_vanished_segment_raises(self, store):
        registry = SharedTraceRegistry()
        name, count = registry.export(store, "gzip", "data", 300, 1, False)
        registry.unlink_all()
        with pytest.raises(FileNotFoundError):
            attach_views(name, count, False)


class TestStoreAdoption:
    def test_adopted_manifest_serves_from_shared_tier(self, store, tmp_path):
        with SharedTraceRegistry() as registry:
            registry.export(store, "gzip", "data", 500, 1, False)
            worker = TraceStore(tmp_path / "empty-root")
            worker.adopt_manifest(registry.manifest())
            blob = worker.addresses("gzip", "data", 500, 1)
            assert list(blob) == list(store.addresses("gzip", "data", 500, 1))
            assert worker.shared_hits == 1
            assert worker.disk_hits == 0 and worker.disk_misses == 0
            del blob  # drop the view so the mapping can actually close
            worker.release_shared()

    def test_vanished_segment_falls_back_to_generation(self, store, tmp_path):
        registry = SharedTraceRegistry()
        registry.export(store, "gzip", "data", 300, 1, False)
        manifest = registry.manifest()
        registry.unlink_all()
        worker = TraceStore(tmp_path / "empty-root")
        worker.adopt_manifest(manifest)
        blob = worker.addresses("gzip", "data", 300, 1)
        assert list(blob) == list(store.addresses("gzip", "data", 300, 1))
        assert worker.shared_hits == 0  # shm gone; regenerated instead

    def test_adopting_none_is_a_noop(self, store):
        store.adopt_manifest(None)
        store.adopt_manifest({})
        assert store.shared_hits == 0


class TestSweepLeakGates:
    JOBS = [
        SweepJob(spec=spec, benchmark=benchmark, n=3000)
        for spec in ("dm", "2way")
        for benchmark in ("gzip", "gcc")
    ]

    def test_run_sweep_unlinks_after_pool_exit(self, store):
        serial = run_sweep(self.JOBS, workers=1, store=store)
        parallel = run_sweep(self.JOBS, workers=2, store=store)
        assert parallel == serial
        assert shm.leaked_segments() == []

    def test_faulted_workers_do_not_leak(self, store, tmp_path):
        """SIGKILL-style worker deaths leave cleanup to the parent."""
        plan = FaultPlan.parse("crash@0,flaky@1,corrupt_blob@2")
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            job_timeout=30.0,
        )
        expected = run_sweep(self.JOBS, workers=1, store=store)
        faulted = run_sweep(
            self.JOBS,
            workers=2,
            store=store,
            run_id="shm-chaos",
            run_root=tmp_path / "runs",
            resilience=config,
            fault_plan=plan,
        )
        assert faulted == expected
        assert shm.leaked_segments() == []


class TestShardPoolLeakGate:
    def test_segments_unlinked_after_close(self, store):
        from repro.serve.workers import ShardPool

        job = SweepJob(spec="dm", benchmark="gzip", n=2000)
        with ShardPool(2, store=store) as pool:
            results = pool.run_batch_blocking(pool.shard_of(job), [job])
            assert results[0][0] == "ok"
            assert len(pool.supervisor._registry) == 1
            assert shm.leaked_segments() != []
        assert shm.leaked_segments() == []

    def test_restarted_shard_gets_manifest_again(self, store):
        from repro.serve.workers import ShardPool

        job = SweepJob(spec="dm", benchmark="gzip", n=2000)
        with ShardPool(1, store=store) as pool:
            pool.run_batch_blocking(0, [job])
            key = trace_key("gzip", "data", 2000, 2006, False)
            assert key in pool.supervisor._workers[0].sent
            os.kill(pool.snapshot()[0]["pid"], signal.SIGKILL)
            pool.run_batch_blocking(0, [job])  # restart + re-send manifest
            assert pool.snapshot()[0]["restarts"] == 1
            assert key in pool.supervisor._workers[0].sent
