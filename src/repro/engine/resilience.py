"""Journaled and fault-planned sweeps: the run journal around the supervisor.

Recovery never changes *what* is simulated, only *when and where* a job
runs, so every path here keeps the engine's core guarantee —
**bit-identical statistics**.  Retries with backoff, per-job deadlines,
worker restarts and the in-process fallback all live in the one worker
supervisor (:class:`repro.engine.workers.Supervisor`).  This module adds
two things around it:

* **a journal filter** — ``<run_root>/<run_id>/`` is a
  :class:`~repro.engine.results.ResultCache`: one CRC32-framed entry
  file per completed job, written atomically and fsync'd.
  ``run_sweep(..., run_id=...)`` skips every job whose entry is there,
  returning its stats bit-identically; a sweep killed with SIGKILL
  resumes from its last durable entry, and a torn or corrupt entry is
  quarantined and its job re-run;
* **a commit callback** — a job counts as done only once its entry is
  on disk (or, under the ``torn_journal`` fault, deliberately is not).

In-process execution (``workers <= 1``, sanitized runs, a single job)
keeps the retry/backoff behaviour but cannot enforce ``job_timeout``: a
process cannot kill itself out of a hang.

Every recovery path is exercised deterministically by the fault
injector in :mod:`repro.engine.faultinject` (see ``docs/engine.md``).
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterable

from repro.engine.faultinject import FaultPlan, tear_result_entry
from repro.engine.results import ResultCache
from repro.engine.runner import SweepJob, job_label
from repro.engine.trace_store import TraceStore
from repro.engine.workers import (  # re-exported: the journal's knobs
    ResilienceConfig,
    RetryPolicy,
    Supervisor,
    SweepFailure,
)
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats

__all__ = [
    "ResilienceConfig",
    "RetryPolicy",
    "SweepFailure",
    "default_run_root",
    "job_key",
    "run_resilient",
]

ENV_RUN_ROOT = "REPRO_RUN_ROOT"


def default_run_root() -> Path:
    """Journal root: ``$REPRO_RUN_ROOT`` or ``~/.cache/bcache-repro/runs``."""
    return obs_events.cache_dir(ENV_RUN_ROOT, "runs")


def job_key(job: SweepJob) -> str:
    """Alias of :meth:`SweepJob.key` for callers that import it from here."""
    return job.key()


def run_resilient(
    jobs: Iterable[SweepJob],
    workers: int | Supervisor,
    store: TraceStore,
    config: ResilienceConfig,
    sanitize: bool = False,
    run_id: str | None = None,
    run_root: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[CacheStats]:
    """Run a sweep crash-safely; returns stats order-aligned with jobs.

    With ``run_id`` every completed job is stored durably as a result
    entry under ``<run_root>/<run_id>/``; jobs whose entries are already
    there (an earlier run of the same id, killed or completed) are
    skipped and their stored stats returned bit-identically.  A job
    whose entry cannot be written fails the sweep with ``OSError``.

    ``workers`` is a process count, or a supervisor the caller owns
    (a fleet sweep passes one whose workers are ``bcache-serve`` nodes).
    """
    jobs = list(jobs)
    journal: ResultCache | None = None
    route_log: contextlib.AbstractContextManager[None] = contextlib.nullcontext()
    if run_id:
        run_dir = Path(run_root) / run_id if run_root else default_run_root() / run_id
        journal = ResultCache(run_dir, fsync=config.fsync)
        # Route telemetry beside the entries so bcache-top (and
        # post-mortems) find one self-contained run directory.
        route_log = obs_events.log_to(run_dir / "events.jsonl")

    def commit(index: int, attempt: int, stats: CacheStats) -> None:
        """A journaled job is only done once its entry is on disk."""
        if journal is None:
            return
        job = jobs[index]
        if fault_plan is not None and fault_plan.matches("torn_journal", index, attempt):
            tear_result_entry(journal, job, stats.snapshot())
        elif not journal.put(job, stats.snapshot()):
            raise OSError(
                f"could not persist job {index} ({job_label(job)}) under {journal.dir}"
            )

    with route_log, obs_events.span(
        "engine.resilient_sweep", run_id=run_id or "", jobs=len(jobs),
        workers=workers if isinstance(workers, int) else workers.size,
    ):
        stored = [journal.get_stats(job) if journal is not None else None for job in jobs]
        todo = [index for index, stats in enumerate(stored) if stats is None]
        if obs_events.enabled():
            for index in todo:
                _obs.job_event(
                    "queued", job_label(jobs[index]), benchmark=jobs[index].benchmark
                )
        if isinstance(workers, Supervisor):
            fresh = iter(workers.run(jobs, todo, fault_plan, commit))
        else:
            processes = 0 if sanitize or workers <= 1 or len(todo) <= 1 else workers
            with Supervisor(min(processes, len(todo)), store, config, sanitize) as supervisor:
                fresh = iter(supervisor.run(jobs, todo, fault_plan, commit))
        return [stats if stats is not None else next(fresh) for stats in stored]
