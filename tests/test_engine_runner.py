"""Tests for the process-pool sweep runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.runner import (
    SweepJob,
    available_cpus,
    default_jobs,
    execute_job,
    run_sweep,
)
from repro.engine.trace_store import TraceStore
from repro.obs import events as obs_events
from repro.obs.events import read_events


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces")


def small_sweep() -> list[SweepJob]:
    return [
        SweepJob(spec=spec, benchmark=benchmark, n=2000)
        for spec in ("dm", "2way", "mf8_bas8")
        for benchmark in ("gzip", "equake")
    ]


class TestExecuteJob:
    def test_reads_only_stream(self, store):
        stats = execute_job(SweepJob(spec="dm", benchmark="gzip", n=1500), store=store)
        assert stats.accesses == 1500
        assert stats.writes == 0

    def test_with_kinds_has_writes(self, store):
        stats = execute_job(
            SweepJob(spec="dm", benchmark="gzip", n=1500, with_kinds=True),
            store=store,
        )
        assert stats.accesses == 1500
        assert stats.writes > 0

    def test_deterministic(self, store):
        job = SweepJob(spec="mf8_bas8", benchmark="gcc", n=1200)
        assert execute_job(job, store=store) == execute_job(job, store=store)

    def test_geometry_forwarded(self, store):
        stats = execute_job(
            SweepJob(spec="dm", benchmark="gzip", n=1000, size=8 * 1024),
            store=store,
        )
        assert stats.num_sets == 256

    def test_sanitized_matches_plain(self, store):
        job = SweepJob(spec="mf8_bas8", benchmark="equake", n=1500)
        plain = execute_job(job, store=store)
        checked = execute_job(job, store=store, sanitize=True)
        assert checked == plain


class TestRunSweep:
    def test_serial_order_aligned(self, store):
        sweep = small_sweep()
        results = run_sweep(sweep, workers=1, store=store)
        assert len(results) == len(sweep)
        for job, stats in zip(sweep, results):
            assert stats == execute_job(job, store=store)

    def test_parallel_bit_identical_to_serial(self, store):
        sweep = small_sweep()
        serial = run_sweep(sweep, workers=1, store=store)
        parallel = run_sweep(sweep, workers=2, store=store)
        assert parallel == serial

    def test_parallel_prewarms_store(self, store):
        run_sweep(small_sweep(), workers=2, store=store)
        for benchmark in ("gzip", "equake"):
            assert store.address_path(benchmark, "data", 2000, 2006).is_file()

    def test_workers_never_generate_a_trace(self, tmp_path):
        store = TraceStore(tmp_path / "empty-root", fsync=False)
        log_path = tmp_path / "events.jsonl"
        obs_events.configure(mode="events", log_path=log_path)
        sweep = [
            SweepJob(spec=spec, benchmark=benchmark, n=2000)
            for spec in ("dm", "2way", "mf8_bas8")
            for benchmark in ("gzip", "equake", "gcc")
        ] + [SweepJob(spec="dm", benchmark="gzip", n=2000, with_kinds=True)]
        parallel = run_sweep(sweep, workers=2, store=store)
        records = list(read_events(log_path))
        worker_pids = {r["pid"] for r in records if r["name"] == "job.run"}
        assert worker_pids and os.getpid() not in worker_pids
        misses = [r["pid"] for r in records if r["name"] == "trace_store.miss"]
        assert not worker_pids & set(misses)
        assert misses == [os.getpid()] * 4  # each trace once, by the parent
        assert parallel == run_sweep(sweep, workers=1, store=store)

    def test_sanitize_forces_serial_and_matches(self, store):
        sweep = small_sweep()[:3]
        plain = run_sweep(sweep, workers=4, store=store)
        checked = run_sweep(sweep, workers=4, sanitize=True, store=store)
        assert checked == plain

    def test_single_job_runs_inline(self, store):
        job = SweepJob(spec="dm", benchmark="gzip", n=800)
        [stats] = run_sweep([job], workers=8, store=store)
        assert stats == execute_job(job, store=store)


class TestResilientRouting:
    """run_sweep routes to the resilient engine; depth in test_resilience."""

    def test_resilience_config_matches_plain(self, store):
        from repro.engine.resilience import ResilienceConfig

        sweep = small_sweep()[:3]
        plain = run_sweep(sweep, workers=1, store=store)
        resilient = run_sweep(
            sweep, workers=1, store=store,
            resilience=ResilienceConfig(fsync=False),
        )
        assert resilient == plain

    def test_run_id_creates_journal(self, store, tmp_path):
        run_sweep(
            small_sweep()[:2], workers=1, store=store,
            run_id="routed", run_root=tmp_path,
        )
        assert len(list((tmp_path / "routed").glob("fp-*/*.json"))) == 2


class TestForkserverStartMethod:
    """Everything the process paths ship to a worker must pickle.

    Under ``fork`` a child inherits the parent's objects, so a lock or
    file handle in a ``Process(args=...)`` goes unnoticed; ``forkserver``
    (the default on Linux from Python 3.14) pickles every argument.
    """

    CHILD = """
import multiprocessing
import sys

multiprocessing.set_start_method("forkserver")

from repro.engine.resilience import ResilienceConfig
from repro.engine.runner import SweepJob, execute_job, run_sweep
from repro.engine.trace_store import TraceStore
from repro.serve.workers import ShardPool

store = TraceStore(sys.argv[1], fsync=False)
jobs = [
    SweepJob(spec=spec, benchmark="gzip", n=1500)
    for spec in ("dm", "2way", "mf8_bas8")
]
serial = [execute_job(job, store=store) for job in jobs]
assert run_sweep(jobs, workers=2, store=store) == serial, "pool"
resilient = run_sweep(
    jobs, workers=2, store=store, resilience=ResilienceConfig(fsync=False)
)
assert resilient == serial, "resilient"
journaled = run_sweep(
    jobs, workers=2, store=store, run_id="fs", run_root=sys.argv[2],
    resilience=ResilienceConfig(fsync=False),
)
assert journaled == serial, "journaled"
with ShardPool(1, store=store) as pool:
    [(status, snapshot)] = pool.run_batch_blocking(0, jobs[:1])
assert (status, snapshot) == ("ok", serial[0].snapshot()), "shard pool"
"""

    def test_process_paths_match_serial_under_forkserver(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(tmp_path / "traces"),
             str(tmp_path / "runs")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDefaultJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_override_capped_by_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_jobs() == min(5, available_cpus())

    def test_oversubscription_clamps_to_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "9999")
        assert default_jobs() == available_cpus()

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1


class TestAvailableCpus:
    def test_positive(self):
        assert available_cpus() >= 1

    def test_honors_sched_getaffinity(self, monkeypatch):
        import repro.engine.runner as runner_mod

        if not hasattr(runner_mod.os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(
            runner_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert available_cpus() == 3

    def test_affinity_failure_falls_back(self, monkeypatch):
        import repro.engine.runner as runner_mod

        def boom(pid):
            raise OSError("no affinity")

        if not hasattr(runner_mod.os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(runner_mod.os, "sched_getaffinity", boom)
        assert available_cpus() >= 1
