"""Tests for the experiment executor: the jobs/result contract, dedupe
across experiments, resume after a kill, and the CLI around it."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from collections.abc import Iterator, Mapping
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, Table, main
from repro.engine import runner, workers
from repro.engine.runner import SweepJob
from repro.experiments.common import ExperimentScale, RunOptions, execute
from repro.experiments.comparisons import VictimSizes
from repro.stats.counters import CacheStats

TINY = ExperimentScale(data_n=600, instr_n=600, instructions=600)

L1_IDS = {
    "fig3", "fig4", "fig5", "fig12", "tab56", "tab7", "hac", "prior-art",
    "replacement", "latency", "sensitivity", "drowsy",
}


class RecordingStats(Mapping[SweepJob, CacheStats]):
    """Serves a made-up result for each declared job and records reads;
    any other job raises ``KeyError``."""

    def __init__(self, declared: tuple[SweepJob, ...]) -> None:
        self.declared = set(declared)
        self.reads: set[SweepJob] = set()

    def __getitem__(self, job: SweepJob) -> CacheStats:
        if job not in self.declared:
            raise KeyError(f"undeclared job {job.key()}")
        self.reads.add(job)
        return CacheStats(
            num_sets=4, accesses=40, hits=30, misses=10, pd_hit_misses=5,
            slow_hits=3, slow_hit_cycles=6,
            set_accesses=[20, 10, 6, 4], set_hits=[16, 8, 4, 2],
            set_misses=[4, 2, 2, 2],
        )

    def __iter__(self) -> Iterator[SweepJob]:
        return iter(self.declared)

    def __len__(self) -> int:
        return len(self.declared)


def _l1_experiments():
    return {
        name: experiment
        for name, experiment in EXPERIMENTS.items()
        if not isinstance(experiment, Table)
    }


class TestJobsResultContract:
    def test_every_l1_experiment_declares_jobs(self):
        assert set(_l1_experiments()) == L1_IDS

    @pytest.mark.parametrize("name", sorted(L1_IDS) + ["victim-sizes"])
    def test_result_reads_exactly_the_declared_jobs(self, name):
        experiment = (
            VictimSizes() if name == "victim-sizes" else _l1_experiments()[name]
        )
        jobs = experiment.jobs(TINY)
        stats = RecordingStats(jobs)
        experiment.result(TINY, stats).render()
        assert stats.reads == set(jobs)


def _count_executions(monkeypatch) -> list[str]:
    keys: list[str] = []
    original = runner.execute_job

    def counting(job, *args, **kwargs):
        keys.append(job.key())
        return original(job, *args, **kwargs)

    monkeypatch.setattr(runner, "execute_job", counting)
    monkeypatch.setattr(workers, "execute_job", counting)
    return keys


SHARED_IDS = ("fig4", "tab7", "drowsy")


def _tables(opts: RunOptions = RunOptions()) -> list[str]:
    selected = [EXPERIMENTS[name] for name in SHARED_IDS]
    return [result.render() for result in execute(selected, TINY, opts)]


class TestDedupe:
    def test_each_distinct_job_runs_once(self, monkeypatch):
        keys = _count_executions(monkeypatch)
        shared = _tables()
        assert len(keys) == len(set(keys))
        declared = {
            job.key()
            for name in SHARED_IDS
            for job in EXPERIMENTS[name].jobs(TINY)
        }
        assert set(keys) == declared
        dm_data = [k for k in keys if '"spec":"dm"' in k and '"side":"data"' in k]
        assert len(dm_data) == 26  # one baseline per benchmark, not three
        # tab7 and drowsy read only jobs fig4 runs.
        assert {job.key() for job in EXPERIMENTS["fig4"].jobs(TINY)} == declared
        keys.clear()
        alone = [EXPERIMENTS[name](TINY) for name in SHARED_IDS]
        assert alone == shared


CHILD = """
import sys, time
from repro.engine import runner, workers
from repro.engine.trace_store import TraceStore, set_default_store
from repro.experiments.common import ExperimentScale, RunOptions, execute
from repro.cli import EXPERIMENTS

store_root, stop = sys.argv[1], int(sys.argv[2])
set_default_store(TraceStore(store_root, fsync=False))
original = runner.execute_job
count = 0


def stalling(job, *args, **kwargs):
    global count
    count += 1
    if count > stop:
        time.sleep(3600)  # a guaranteed mid-run SIGKILL window
    return original(job, *args, **kwargs)


workers.execute_job = stalling
scale = ExperimentScale(data_n=600, instr_n=600, instructions=600)
for result in execute(
    [EXPERIMENTS[name] for name in ("fig4", "tab7", "drowsy")],
    scale,
    RunOptions(run_id="killed"),
):
    print(result.render())
"""


class TestKillResume:
    """SIGKILL an executor run under a run id; the rerun resumes it."""

    def test_sigkill_then_rerun_executes_only_missing_jobs(
        self, tmp_path, monkeypatch
    ):
        stop = 150
        run_root = tmp_path / "runs"
        store_root = tmp_path / "traces"
        monkeypatch.setenv("REPRO_RUN_ROOT", str(run_root))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(store_root), str(stop)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if len(list((run_root / "killed").glob("fp-*/*.json"))) >= stop:
                    break
                assert proc.poll() is None, "run exited before the kill"
                time.sleep(0.02)
            else:
                pytest.fail("journal never reached the pre-kill state")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert len(list((run_root / "killed").glob("fp-*/*.json"))) == stop

        keys = _count_executions(monkeypatch)
        resumed = _tables(RunOptions(run_id="killed"))
        total = len(set(EXPERIMENTS["fig4"].jobs(TINY)))
        assert len(keys) == len(set(keys)) == total - stop
        keys.clear()
        assert resumed == _tables()


class TestCli:
    def test_unknown_id_exits_before_any_work(self, capsys, monkeypatch):
        keys = _count_executions(monkeypatch)
        assert main(["tab2", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nope" in captured.err
        assert keys == []

    def test_report_reuses_the_printed_tables(self, tmp_path, capsys, monkeypatch):
        keys = _count_executions(monkeypatch)
        assert main(["fig3", "--scale", "smoke"]) == 0
        plain = len(keys)
        keys.clear()
        report = tmp_path / "report.md"
        assert main(["fig3", "--scale", "smoke", "--report", str(report)]) == 0
        assert len(keys) == plain > 0
        out = capsys.readouterr().out
        table = out.split("== fig3 (scale=smoke) ==\n")[-1].split("\n[")[0]
        assert table in report.read_text()
