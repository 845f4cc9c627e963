"""Shared-memory leak scan and dead-owner reaping.

The engine creates no shared-memory segments; :mod:`repro.engine.shm`
keeps the ``bcrepro-*`` leak scan the serve and chaos gates assert on,
and the reaper that unlinks segments whose owner pid is gone.  The
sweep gates check that neither a parallel sweep nor a fault-injected
one leaves a segment behind.
"""

from __future__ import annotations

import pytest

from repro.engine import shm
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.engine.runner import SweepJob, run_sweep
from repro.engine.trace_store import TraceStore


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", memory_entries=8)


@pytest.fixture(autouse=True)
def no_leaks_before_or_after():
    assert shm.leaked_segments() == [], "segments leaked by an earlier test"
    yield
    assert shm.leaked_segments() == [], "this test leaked segments"


class TestStaleReaper:
    """SIGKILLed owners cannot unlink; the reaper must."""

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
        """SIGKILL-style worker deaths leave nothing in /dev/shm."""
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
