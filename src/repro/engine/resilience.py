"""Crash-safe sweep execution: retries, timeouts, journal, fallback.

The plain pool runner (``repro.engine.runner``) assumes a well-behaved
world: no worker hangs, nothing is OOM-killed, nobody presses Ctrl-C
at hour two of a 26-benchmark panel.  This layer drops that assumption
while preserving the engine's core guarantee — **bit-identical
statistics** — because recovery never changes *what* is simulated,
only *when and where* a job runs:

* **Retry with exponential backoff + deterministic jitter** — every
  :class:`~repro.engine.runner.SweepJob` is retried up to
  ``RetryPolicy.max_attempts`` times; jitter comes from a seeded
  ``random.Random`` so two runs of the same failing sweep behave the
  same.
* **Per-job wall-clock timeouts** — each job runs in its own
  supervised worker process; a worker that exceeds
  ``ResilienceConfig.job_timeout`` is killed and the job is
  rescheduled on a fresh worker.
* **Crash-consistent run journal** — ``<run_root>/<run_id>/`` is a
  :class:`~repro.engine.results.ResultCache`: one CRC32-framed entry
  file per completed job, written atomically and fsync'd.
  ``run_sweep(..., resume=run_id)`` skips every job whose entry is
  there, returning its stats bit-identically; a sweep killed with
  SIGKILL resumes from its last durable entry, and a torn or corrupt
  entry is quarantined and its job re-run.
* **Graceful degradation** — after ``max_pool_failures`` consecutive
  worker-process failures (crashes or timeouts, not in-job Python
  errors) the supervisor stops forking and finishes the remaining jobs
  serially in-process with a warning instead of aborting the sweep.

Serial (in-process) execution keeps the retry/backoff behaviour but
cannot enforce ``job_timeout`` — a process cannot kill itself out of a
hang; timeouts need the supervised worker path (``workers > 1``).

Every recovery path is exercised deterministically by the fault
injector in :mod:`repro.engine.faultinject` (see ``docs/engine.md``).
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from random import Random
from typing import Any, Iterable, Sequence

from repro.engine.faultinject import (
    FaultPlan,
    apply_child_faults,
    apply_inprocess_faults,
    corrupt_job_blobs,
    tear_result_entry,
)
from repro.engine.results import ResultCache
from repro.engine.runner import SweepJob, _prewarm, execute_job, job_label
from repro.engine.shm import Manifest, SharedTraceRegistry
from repro.engine.trace_store import TraceStore, set_default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats

log = logging.getLogger("repro.engine.resilience")

ENV_RUN_ROOT = "REPRO_RUN_ROOT"


def default_run_root() -> Path:
    """Journal root: ``$REPRO_RUN_ROOT`` or ``~/.cache/bcache-repro/runs``."""
    return obs_events.cache_dir(ENV_RUN_ROOT, "runs")


class SweepFailure(RuntimeError):
    """A job exhausted its retry budget (the journal keeps what finished)."""


# ----------------------------------------------------------------------
# Retry/timeout knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt, rng)`` for attempt 0, 1, 2, ... is
    ``min(max_delay, base_delay * 2**attempt)`` plus a uniform jitter of
    up to ``jitter`` times that value, drawn from the caller's seeded
    ``Random`` so reruns back off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: Random) -> float:
        raw = min(self.max_delay, self.base_delay * (2 ** max(0, attempt)))
        return raw + rng.uniform(0.0, self.jitter * raw)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Tuning for the resilient sweep executor.

    Attributes:
        retry: per-job retry/backoff policy.
        job_timeout: wall-clock seconds a supervised worker may spend
            on one job before it is killed and the job rescheduled.
        max_pool_failures: consecutive worker-process failures (crash
            or timeout) after which the supervisor falls back to serial
            in-process execution for the remaining jobs.
        backoff_seed: seed for the jitter generator (deterministic).
        fsync: flush each journal entry to stable storage before its
            rename (the crash-consistency guarantee; disable only in
            tests).
    """

    retry: RetryPolicy = RetryPolicy()
    job_timeout: float = 120.0
    max_pool_failures: int = 3
    backoff_seed: int = 2006
    fsync: bool = True


def job_key(job: SweepJob) -> str:
    """Alias of :meth:`SweepJob.key` for callers that import it from here."""
    return job.key()


# ----------------------------------------------------------------------
# Supervised workers
# ----------------------------------------------------------------------
def _safe_send(conn: Connection, message: object) -> None:
    with contextlib.suppress(OSError, ValueError, BrokenPipeError):
        conn.send(message)


def _worker_entry(
    conn: Connection,
    job: SweepJob,
    store_root: str,
    sanitize: bool,
    fault_kinds: tuple[str, ...],
    obs_mode: str = "off",
    obs_log: str = "",
    manifest: Manifest | None = None,
) -> None:
    """Child process: run one job, send ('ok', snapshot) or ('error', msg)."""
    try:
        apply_child_faults(fault_kinds)  # may _exit, hang, or raise
        worker_store = TraceStore(store_root, fsync=False)
        worker_store.adopt_manifest(manifest)
        set_default_store(worker_store)
        if obs_mode != "off" and obs_log:
            obs_events.configure(mode=obs_mode, log_path=obs_log)
        stats = execute_job(job, sanitize=sanitize)
    except Exception as exc:
        _safe_send(conn, ("error", f"{type(exc).__name__}: {exc}"))
    else:
        _safe_send(conn, ("ok", stats.snapshot()))
    finally:
        conn.close()


@dataclass(slots=True)
class _Pending:
    ready_at: float
    index: int
    attempt: int


@dataclass(slots=True)
class _Active:
    index: int
    attempt: int
    proc: multiprocessing.process.BaseProcess
    conn: object
    deadline: float


class _PoolDegraded(Exception):
    """Internal: too many consecutive worker failures; go serial."""


def _reap(worker: _Active) -> int | None:
    """Close the pipe, collect the worker, return its exit code."""
    with contextlib.suppress(OSError, ValueError):
        worker.conn.close()  # type: ignore[attr-defined]
    worker.proc.join(timeout=5.0)
    if worker.proc.is_alive():
        worker.proc.kill()
        worker.proc.join(timeout=5.0)
    exitcode = worker.proc.exitcode
    with contextlib.suppress(OSError, ValueError, AttributeError):
        worker.proc.close()
    return exitcode


def _receive(worker: _Active) -> tuple | None:
    """The worker's message, or ``None`` if it died before sending."""
    try:
        message = worker.conn.recv()  # type: ignore[attr-defined]
    except (EOFError, OSError):
        return None
    return message if isinstance(message, tuple) and len(message) == 2 else None


def _spawn(
    ctx: Any,
    jobs: Sequence[SweepJob],
    entry: _Pending,
    store: TraceStore,
    config: ResilienceConfig,
    plan: FaultPlan | None,
    sanitize: bool,
    manifest: Manifest | None = None,
) -> _Active:
    job = jobs[entry.index]
    if plan is not None and plan.matches("corrupt_blob", entry.index, entry.attempt):
        corrupt_job_blobs(store, job)
        # The fault corrupts *disk* blobs to exercise the quarantine
        # path; a shared-memory attach would serve the pristine copy
        # and bypass it, so this worker gets no manifest.
        manifest = None
    child_kinds = plan.child_kinds(entry.index, entry.attempt) if plan else ()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_entry,
        args=(
            child_conn,
            job,
            str(store.root),
            sanitize,
            child_kinds,
            obs_events.mode(),
            str(obs_events.active_log_path()),
            manifest,
        ),
        daemon=True,
    )
    _obs.job_event(
        "running", job_label(job), benchmark=job.benchmark, attempt=entry.attempt
    )
    proc.start()
    child_conn.close()
    return _Active(
        index=entry.index,
        attempt=entry.attempt,
        proc=proc,
        conn=parent_conn,
        deadline=time.monotonic() + config.job_timeout,
    )


def _commit(
    results: list,
    journal: ResultCache | None,
    jobs: Sequence[SweepJob],
    index: int,
    attempt: int,
    stats: CacheStats,
    plan: FaultPlan | None,
) -> None:
    """Record one result; a journaled job is only done once it is on disk."""
    results[index] = stats
    if journal is None:
        return
    job = jobs[index]
    if plan is not None and plan.matches("torn_journal", index, attempt):
        tear_result_entry(journal, job, stats.snapshot())
    elif not journal.put(job, stats.snapshot()):
        raise OSError(
            f"could not persist job {index} ({job_label(job)}) under {journal.dir}"
        )


def _schedule_retry(
    pending: list[_Pending],
    index: int,
    attempt: int,
    reason: str,
    config: ResilienceConfig,
    rng: Random,
    jobs: Sequence[SweepJob],
) -> None:
    """Queue the next attempt with backoff, or give up with SweepFailure."""
    job = jobs[index]
    if attempt + 1 >= config.retry.max_attempts:
        _obs.job_event(
            "failed", job_label(job), benchmark=job.benchmark,
            attempt=attempt, reason=reason,
        )
        raise SweepFailure(
            f"job {index} ({job.spec}/{job.benchmark}) failed after "
            f"{config.retry.max_attempts} attempt(s): {reason}"
        )
    delay = config.retry.delay(attempt, rng)
    _obs.job_event(
        "retried", job_label(job), benchmark=job.benchmark,
        attempt=attempt, reason=reason, delay_s=round(delay, 3),
    )
    log.warning(
        "job %d (%s/%s) attempt %d failed (%s); retrying in %.3fs",
        index,
        job.spec,
        job.benchmark,
        attempt,
        reason,
        delay,
    )
    pending.append(_Pending(time.monotonic() + delay, index, attempt + 1))


def _wait_for_activity(
    active: list[_Active], pending: list[_Pending], now: float
) -> list[_Active]:
    """Block until a worker speaks, a deadline nears, or a retry is due."""
    timeout = 0.2
    for worker in active:
        timeout = min(timeout, max(worker.deadline - now, 0.0))
    for entry in pending:
        timeout = min(timeout, max(entry.ready_at - now, 0.0))
    timeout = max(timeout, 0.01)
    if not active:
        time.sleep(timeout)
        return []
    ready = set(_conn_wait([worker.conn for worker in active], timeout))
    return [worker for worker in active if worker.conn in ready]


def _run_supervised(
    jobs: Sequence[SweepJob],
    todo: Sequence[int],
    results: list,
    store: TraceStore,
    config: ResilienceConfig,
    journal: ResultCache | None,
    plan: FaultPlan | None,
    workers: int,
    sanitize: bool,
    rng: Random,
    manifest: Manifest | None = None,
) -> None:
    """Fan ``todo`` over supervised worker processes with recovery."""
    ctx = multiprocessing.get_context()
    pending = [_Pending(0.0, index, 0) for index in todo]
    active: list[_Active] = []
    consecutive_failures = 0
    degraded: list[tuple[int, int]] = []
    try:
        while pending or active:
            now = time.monotonic()
            due = sorted(
                (entry for entry in pending if entry.ready_at <= now),
                key=lambda entry: entry.index,
            )
            for entry in due:
                if len(active) >= workers:
                    break
                pending.remove(entry)
                active.append(
                    _spawn(ctx, jobs, entry, store, config, plan, sanitize, manifest)
                )
            for worker in _wait_for_activity(active, pending, time.monotonic()):
                message = _receive(worker)
                exitcode = _reap(worker)
                active.remove(worker)
                if message is not None and message[0] == "ok":
                    consecutive_failures = 0
                    _commit(
                        results,
                        journal,
                        jobs,
                        worker.index,
                        worker.attempt,
                        CacheStats.from_snapshot(message[1]),
                        plan,
                    )
                else:
                    if message is None:
                        consecutive_failures += 1
                        reason = f"worker died (exit code {exitcode})"
                    else:
                        reason = str(message[1])
                    _schedule_retry(
                        pending, worker.index, worker.attempt, reason, config, rng, jobs
                    )
            now = time.monotonic()
            for worker in [w for w in active if w.deadline <= now]:
                worker.proc.kill()
                _reap(worker)
                active.remove(worker)
                consecutive_failures += 1
                _schedule_retry(
                    pending,
                    worker.index,
                    worker.attempt,
                    f"hung: exceeded job_timeout={config.job_timeout:.1f}s",
                    config,
                    rng,
                    jobs,
                )
            if consecutive_failures >= config.max_pool_failures and (
                pending or active
            ):
                raise _PoolDegraded
    except _PoolDegraded:
        degraded = sorted(
            [(worker.index, worker.attempt) for worker in active]
            + [(entry.index, entry.attempt) for entry in pending]
        )
    finally:
        for worker in active:
            worker.proc.kill()
            _reap(worker)
    if degraded:
        log.warning(
            "%d consecutive worker-pool failures; degrading to serial "
            "in-process execution for the remaining %d job(s)",
            consecutive_failures,
            len(degraded),
        )
        _run_serial_entries(
            jobs, degraded, results, store, config, journal, plan, sanitize, rng
        )


def _run_serial_entries(
    jobs: Sequence[SweepJob],
    entries: Iterable[tuple[int, int]],
    results: list,
    store: TraceStore,
    config: ResilienceConfig,
    journal: ResultCache | None,
    plan: FaultPlan | None,
    sanitize: bool,
    rng: Random,
) -> None:
    """Run jobs in-process with retry/backoff (no kill-based timeouts).

    In-process execution cannot enforce ``job_timeout`` — a process
    cannot kill itself out of a hang — so ``crash``/``hang`` faults
    degrade to transient exceptions here (see ``faultinject``).
    """
    for index, attempt in sorted(entries):
        job = jobs[index]
        while True:
            if plan is not None and plan.matches("corrupt_blob", index, attempt):
                corrupt_job_blobs(store, job)
            try:
                apply_inprocess_faults(
                    plan.child_kinds(index, attempt) if plan else ()
                )
                stats = execute_job(job, store=store, sanitize=sanitize)
            except Exception as exc:
                if attempt + 1 >= config.retry.max_attempts:
                    _obs.job_event(
                        "failed", job_label(job), benchmark=job.benchmark,
                        attempt=attempt, reason=str(exc),
                    )
                    raise SweepFailure(
                        f"job {index} ({job.spec}/{job.benchmark}) failed "
                        f"after {config.retry.max_attempts} attempt(s): {exc}"
                    ) from exc
                delay = config.retry.delay(attempt, rng)
                _obs.job_event(
                    "retried", job_label(job), benchmark=job.benchmark,
                    attempt=attempt, reason=str(exc), delay_s=round(delay, 3),
                )
                log.warning(
                    "job %d (%s/%s) attempt %d failed (%s); retrying in %.3fs",
                    index,
                    job.spec,
                    job.benchmark,
                    attempt,
                    exc,
                    delay,
                )
                time.sleep(delay)
                attempt += 1
            else:
                _commit(results, journal, jobs, index, attempt, stats, plan)
                break


# ----------------------------------------------------------------------
# Entry point (reached via run_sweep's resilience kwargs)
# ----------------------------------------------------------------------
def run_resilient(
    jobs: Iterable[SweepJob],
    workers: int,
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
    """
    jobs = list(jobs)
    rng = Random(config.backoff_seed)
    journal: ResultCache | None = None
    route_log: contextlib.AbstractContextManager[None] = contextlib.nullcontext()
    if run_id:
        run_dir = Path(run_root) / run_id if run_root else default_run_root() / run_id
        journal = ResultCache(run_dir, fsync=config.fsync)
        # Route telemetry beside the entries so bcache-top (and
        # post-mortems) find one self-contained run directory.
        route_log = obs_events.log_to(run_dir / "events.jsonl")
    with route_log, obs_events.span(
        "engine.resilient_sweep",
        run_id=run_id or "",
        jobs=len(jobs),
        workers=workers,
    ):
        results = _resilient_body(
            jobs, workers, store, config, sanitize, journal, fault_plan, rng
        )
    return results


def _resilient_body(
    jobs: Sequence[SweepJob],
    workers: int,
    store: TraceStore,
    config: ResilienceConfig,
    sanitize: bool,
    journal: ResultCache | None,
    fault_plan: FaultPlan | None,
    rng: Random,
) -> list[CacheStats]:
    """Resume bookkeeping + dispatch (parent events already routed)."""
    results: list[CacheStats] = [None] * len(jobs)  # type: ignore[list-item]
    todo: list[int] = []
    for index, job in enumerate(jobs):
        done = journal.get_stats(job) if journal is not None else None
        if done is not None:
            results[index] = done
        else:
            todo.append(index)
    if obs_events.enabled():
        for index in todo:
            _obs.job_event(
                "queued", job_label(jobs[index]), benchmark=jobs[index].benchmark
            )
    if todo:
        if sanitize or workers <= 1 or len(todo) == 1:
            _run_serial_entries(
                jobs,
                [(index, 0) for index in todo],
                results,
                store,
                config,
                journal,
                fault_plan,
                sanitize,
                rng,
            )
        else:
            registry = SharedTraceRegistry()
            try:
                manifest = _prewarm([jobs[index] for index in todo], store, registry)
                _run_supervised(
                    jobs,
                    todo,
                    results,
                    store,
                    config,
                    journal,
                    fault_plan,
                    min(workers, len(todo)),
                    sanitize,
                    rng,
                    manifest,
                )
            finally:
                registry.unlink_all()
    return results
