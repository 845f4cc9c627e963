"""Tests for the crash-safe sweep engine (retries, journal, resume)."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from repro.engine.faultinject import FaultPlan, tear_result_entry
from repro.engine.resilience import (
    ResilienceConfig,
    RetryPolicy,
    SweepFailure,
    default_run_root,
)
from repro.engine.results import ResultCache, decode_entry
from repro.engine.runner import SweepJob, execute_job, job_label, run_sweep
from repro.engine.trace_store import TraceStore
from repro.obs import events as obs_events
from repro.obs.events import read_events


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", fsync=False)


def small_sweep(n: int = 2000) -> list[SweepJob]:
    return [
        SweepJob(spec=spec, benchmark=benchmark, n=n)
        for spec in ("dm", "2way")
        for benchmark in ("gzip", "equake")
    ]


FAST = ResilienceConfig(
    retry=RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.05),
    job_timeout=30.0,
    fsync=False,
)


def entries(run_dir: Path) -> list[Path]:
    """The result-cache entry files a journaled run left in ``run_dir``."""
    return sorted(run_dir.glob("fp-*/*.json"))


class TestRetryPolicy:
    def test_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay(2, Random(7)) == policy.delay(2, Random(7))

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        rng = Random(1)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(10, rng) == pytest.approx(0.4)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        delay = policy.delay(0, Random(3))
        assert 0.1 <= delay <= 0.15


class TestResultJournal:
    def test_round_trip_bit_identical(self, tmp_path, store):
        job = SweepJob(spec="dm", benchmark="gzip", n=1200)
        stats = execute_job(job, store=store)
        run_sweep([job], workers=1, store=store, run_id="r1",
                  run_root=tmp_path, resilience=FAST)

        reloaded = ResultCache(tmp_path / "r1")
        assert reloaded.get_stats(job) == stats
        # The run directory is nothing but result-cache entries.
        assert [p.name for p in (tmp_path / "r1").iterdir()] == [reloaded.dir.name]

    def test_torn_tail_skipped_and_healed(self, tmp_path, store):
        jobs = small_sweep(1000)[:2]
        stats = [execute_job(job, store=store) for job in jobs]
        journal = ResultCache(tmp_path / "run", fsync=False)
        assert journal.put(jobs[0], stats[0].snapshot())
        tear_result_entry(journal, jobs[1], stats[1].snapshot())  # simulated crash

        reloaded = ResultCache(tmp_path / "run", fsync=False)
        assert reloaded.get_stats(jobs[0]) == stats[0]
        assert reloaded.get_stats(jobs[1]) is None
        # Re-running the job heals it: its entry lands under the real name.
        assert reloaded.put(jobs[1], stats[1].snapshot())
        assert ResultCache(tmp_path / "run").get_stats(jobs[1]) == stats[1]

    def test_corrupt_line_skipped(self, tmp_path, store):
        jobs = small_sweep(1000)[:2]
        clean = run_sweep(jobs, workers=1, store=store)
        run_sweep(jobs, workers=1, store=store, run_id="r1",
                  run_root=tmp_path, resilience=FAST)
        journal = ResultCache(tmp_path / "r1")
        path = journal.entry_path(journal.key(jobs[0]))
        line = path.read_text()
        path.write_text(line[:9] + ("X" if line[9] != "X" else "Y") + line[10:])

        resumed = run_sweep(jobs, workers=1, store=store, run_id="r1",
                            run_root=tmp_path, resilience=FAST)
        assert resumed == clean
        assert (tmp_path / "r1" / "quarantine" / path.name).is_file()
        assert len(entries(tmp_path / "r1")) == len(jobs)  # re-run, re-stored

    def test_each_job_is_one_atomic_entry(self, tmp_path, store):
        jobs = small_sweep(1000)
        run_sweep(jobs, workers=1, store=store, run_id="r1",
                  run_root=tmp_path, resilience=FAST)
        stored = entries(tmp_path / "r1")
        assert len(stored) == len(jobs)
        assert not list((tmp_path / "r1").glob("fp-*/*.tmp.*"))
        keys = {decode_entry(path.read_text())["key"] for path in stored}
        assert keys == {job.key() for job in jobs}

    def test_default_run_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_ROOT", str(tmp_path / "runs"))
        assert default_run_root() == tmp_path / "runs"


class TestResumeSerial:
    def test_run_id_journals_and_resumes(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        first = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert first == clean
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == clean

    def test_resume_skips_execution(self, tmp_path, store, monkeypatch):
        jobs = small_sweep()
        expected = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )

        import repro.engine.workers as workers

        def _boom(*args, **kwargs):
            raise AssertionError("resume must not re-execute completed jobs")

        monkeypatch.setattr(workers, "execute_job", _boom)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == expected

    def test_resume_with_other_jobs_reuses_shared_entries(
        self, tmp_path, store, monkeypatch
    ):
        jobs = small_sweep()[:2]
        run_sweep(
            jobs, workers=1, store=store, run_id="fp", run_root=tmp_path,
            resilience=FAST,
        )
        other = small_sweep()[1:3]
        import repro.engine.workers as workers

        ran: list[SweepJob] = []

        def counting(job, *args, **kwargs):
            ran.append(job)
            return execute_job(job, *args, **kwargs)

        monkeypatch.setattr(workers, "execute_job", counting)
        got = run_sweep(
            other, workers=1, store=store, run_id="fp", run_root=tmp_path,
            resilience=FAST,
        )
        assert got == run_sweep(other, workers=1, store=store)
        assert ran == [other[1]]  # the shared job replayed from its entry

    def test_unwritable_journal_fails_the_run(self, tmp_path, store, read_only_dir):
        # A journaled job must never count as persisted when it is not.
        read_only_dir(ResultCache(tmp_path / "ro").dir)
        with pytest.raises(OSError, match="could not persist"):
            run_sweep(
                small_sweep()[:1], workers=1, store=store, run_id="ro",
                run_root=tmp_path, resilience=FAST,
            )

    def test_sanitized_run_survives_resume(self, tmp_path, store):
        jobs = small_sweep()[:2]
        plain = run_sweep(jobs, workers=1, store=store)
        checked = run_sweep(
            jobs, workers=1, store=store, sanitize=True,
            run_id="san", run_root=tmp_path, resilience=FAST,
        )
        assert checked == plain
        resumed = run_sweep(
            jobs, workers=1, store=store, sanitize=True,
            run_id="san", run_root=tmp_path, resilience=FAST,
        )
        assert resumed == plain


class TestFaultRecovery:
    def test_flaky_job_retries_serially(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("flaky@0,flaky@2")
        got = run_sweep(
            jobs, workers=1, store=store, resilience=FAST, fault_plan=plan,
        )
        assert got == clean

    def test_crash_and_hang_recovered_by_supervisor(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4, base_delay=0.005),
            job_timeout=8.0,
            fsync=False,
        )
        plan = FaultPlan.parse("crash@0,hang@1")
        got = run_sweep(
            jobs, workers=2, store=store, resilience=config, fault_plan=plan,
        )
        assert got == clean

    def test_corrupt_blob_quarantined_and_recovered(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("corrupt_blob@1")
        got = run_sweep(
            jobs, workers=1, store=store, resilience=FAST, fault_plan=plan,
        )
        assert got == clean
        assert (store.quarantine_root).is_dir()

    def test_torn_journal_rerun_on_resume(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("torn_journal@2")
        got = run_sweep(
            jobs, workers=1, store=store, run_id="torn", run_root=tmp_path,
            resilience=FAST, fault_plan=plan,
        )
        assert got == clean
        assert len(entries(tmp_path / "torn")) == len(jobs) - 1
        assert len(list((tmp_path / "torn").glob("fp-*/*.tmp.*"))) == 1
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="torn", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == clean
        assert len(entries(tmp_path / "torn")) == len(jobs)

    def test_retry_budget_exhaustion_raises(self, store):
        jobs = small_sweep()[:1]
        plan = FaultPlan(
            # Fail every attempt the budget allows.
            [
                spec
                for attempt in range(4)
                for spec in FaultPlan.parse(f"flaky@0:{attempt}").specs
            ]
        )
        with pytest.raises(SweepFailure, match="failed after"):
            run_sweep(jobs, workers=1, store=store, resilience=FAST, fault_plan=plan)

    def test_pool_degrades_to_serial_after_failures(self, tmp_path, store, caplog):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=5, base_delay=0.005),
            job_timeout=30.0,
            max_pool_failures=2,
            fsync=False,
        )
        plan = FaultPlan.parse("crash@0,crash@1")
        with caplog.at_level("WARNING", logger="repro.engine.resilience"):
            got = run_sweep(
                jobs, workers=2, store=store, resilience=config, fault_plan=plan,
            )
        assert got == clean
        assert any("serial" in record.message for record in caplog.records)


class TestPersistentWorkers:
    """Supervisor workers live for the whole sweep, faults included."""

    @staticmethod
    def _runs_by_pid(path: Path) -> dict[int, list[str]]:
        """``job.run`` span keys per worker pid, in each worker's order."""
        runs: dict[int, list[str]] = {}
        for record in read_events(path):
            if record["name"] == "job.run":
                runs.setdefault(record["pid"], []).append(record["key"])
        return runs

    def test_journaled_sweep_starts_one_process_per_worker(self, tmp_path, store):
        obs_events.configure(mode="events", log_path=tmp_path / "events.jsonl")
        jobs = [
            SweepJob(spec=spec, benchmark=benchmark, n=1000)
            for spec in ("dm", "2way", "4way")
            for benchmark in ("gzip", "equake", "gcc", "mcf")
        ]
        got = run_sweep(
            jobs, workers=2, store=store, run_id="persist", run_root=tmp_path,
            resilience=FAST,
        )
        assert got == run_sweep(jobs, workers=1, store=store)
        # The journaled run routes its events beside its entries.
        runs = self._runs_by_pid(tmp_path / "persist" / "events.jsonl")
        assert sum(len(keys) for keys in runs.values()) == len(jobs)
        assert len(runs) == 2
        assert os.getpid() not in runs

    def test_corrupt_blob_bypasses_a_warm_worker_lru(self, tmp_path, store):
        jobs = [
            SweepJob(spec=spec, benchmark="gzip", n=2000)
            for spec in ("dm", "2way", "4way", "8way", "mf8_bas8", "fa")
        ]
        clean = [execute_job(job, store=store) for job in jobs]
        log_path = tmp_path / "events.jsonl"
        obs_events.configure(mode="events", log_path=log_path)
        got = run_sweep(
            jobs, workers=2, store=store, resilience=FAST,
            fault_plan=FaultPlan.parse("corrupt_blob@5"),
        )
        assert got == clean
        blob = store.address_path("gzip", "data", 2000, 2006).name
        assert (store.quarantine_root / blob).is_file()
        # The faulted job ran on a worker whose memory LRU already held
        # this trace from an earlier job.
        label = job_label(jobs[5])
        [keys] = [keys for keys in self._runs_by_pid(log_path).values() if label in keys]
        assert keys.index(label) > 0


class TestKillResume:
    """SIGKILL a journaled sweep mid-run; resume must be bit-identical."""

    def test_sigkill_mid_run_resumes_bit_identically(self, tmp_path, store):
        jobs = small_sweep(3000)
        run_root = tmp_path / "runs"
        # The child hangs forever on job 0 (huge timeout, no retry help),
        # so it deterministically finishes every other job, stores
        # them, and then blocks — a guaranteed mid-run SIGKILL window.
        child_code = """
import sys
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import ResilienceConfig
from repro.engine.runner import SweepJob, run_sweep
from repro.engine.trace_store import TraceStore, set_default_store

store_root, run_root = sys.argv[1], sys.argv[2]
set_default_store(TraceStore(store_root, fsync=False))
jobs = [
    SweepJob(spec=spec, benchmark=benchmark, n=3000)
    for spec in ("dm", "2way")
    for benchmark in ("gzip", "equake")
]
run_sweep(
    jobs,
    workers=2,
    run_id="killed",
    run_root=run_root,
    resilience=ResilienceConfig(job_timeout=3600.0),
    fault_plan=FaultPlan.parse("hang@0"),
)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(store.root), str(run_root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # killpg must reach the hung worker too
        )
        try:
            deadline = time.monotonic() + 60.0
            # Wait for an entry per job except the hung one, then kill.
            while time.monotonic() < deadline:
                if len(entries(run_root / "killed")) >= len(jobs) - 1:
                    break
                assert proc.poll() is None, "sweep exited before the kill"
                time.sleep(0.02)
            else:
                pytest.fail("journal never reached the pre-kill state")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        assert len(entries(run_root / "killed")) == len(jobs) - 1  # killed mid-run

        clean = run_sweep(jobs, workers=1, store=store)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="killed", run_root=run_root,
            resilience=FAST,
        )
        assert resumed == clean
        assert len(entries(run_root / "killed")) == len(jobs)
