"""One worker supervisor: persistent, supervised worker processes.

Every parallel path in the repository runs on a :class:`Supervisor`:
``run_sweep(workers > 1)``, the journaled and fault-planned sweeps of
:mod:`repro.engine.resilience`, and ``bcache-serve``'s shards
(:class:`repro.serve.workers.ShardPool`).  A supervisor owns ``workers``
long-lived processes.  Each runs :func:`_worker_entry`, a loop over one
message shape:

* in: ``(jobs, trace contexts, fault kinds)``;
* out: ``(results, metric deltas, span deltas)``.

Every job runs through :func:`repro.engine.runner.execute_job`, the
path the serial harness uses, so results are bit-identical to a serial
run whichever worker, attempt or fallback produced them.  The parent
side does, once for every caller:

* **trace-affinity routing** (:func:`trace_shard_key`) for batches:
  jobs replaying the same stream go to the same worker, so its trace
  LRU stays hot;
* **traces on disk before dispatch**: a sweep materialises each
  distinct trace once in the store (:meth:`TraceStore.ensure`), so a
  worker reads the CRC-checked blob into its own memory LRU, as a
  serial run does, and never generates one;
* **a deadline** of ``ResilienceConfig.job_timeout`` per job a message
  carries; a worker past it is killed;
* **restart** of a dead or killed worker after a :class:`RetryPolicy`
  backoff;
* **per-job retry** of failed attempts, with backoff (:meth:`Supervisor.run`);
* **in-process fallback** once ``max_pool_failures`` consecutive worker
  failures show the processes cannot make progress;
* **merging** the workers' metric and span deltas into this process.

Two entry points share that machinery.  :meth:`Supervisor.run` runs a
sweep: one dispatcher thread per worker takes jobs, in order, from a
shared queue.  :meth:`Supervisor.call` runs one batch on the worker the
caller routed it to (:meth:`Supervisor.shard_of`) and blocks; the serve
tier calls it from an executor thread, never the event loop.  A supervisor with zero
workers runs everything in-process through the same retry loop.
"""

from __future__ import annotations

import contextlib
import heapq
import logging
import multiprocessing
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from random import Random
from typing import Any, Callable, Iterable, Sequence

from repro.engine.faultinject import (
    FaultPlan,
    apply_child_faults,
    apply_inprocess_faults,
    corrupt_job_blobs,
)
from repro.engine.runner import SweepJob, execute_job, job_label
from repro.engine.trace_store import TraceStore, set_default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs.metrics import default_registry
from repro.obs.tracectx import TraceContext
from repro.stats.counters import CacheStats

log = logging.getLogger("repro.engine.workers")

#: One job's outcome: ``("ok", CacheStats snapshot)`` or ``("error", message)``.
Outcome = tuple[str, Any]

#: ``commit(index, attempt, stats)``: called once per finished sweep job.
Commit = Callable[[int, int, CacheStats], None]


class SweepFailure(RuntimeError):
    """A job exhausted its retry budget (the journal keeps what finished)."""


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
    """Tuning for the worker supervisor and the run journal.

    Attributes:
        retry: per-job retry budget and the backoff of job retries and
            worker restarts.
        job_timeout: wall-clock seconds a worker may spend per job of a
            message before it is killed and restarted.
        max_pool_failures: consecutive worker failures (crash or
            timeout) after which the remaining work runs in-process.
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


def trace_shard_key(job: SweepJob) -> int:
    """Stable hash of the job's trace identity (not its cache spec)."""
    identity = f"{job.benchmark}|{job.side}|{job.n}|{job.seed}|{job.with_kinds}"
    return zlib.crc32(identity.encode())


def _attempt(
    job: SweepJob,
    kinds: Sequence[str],
    store: TraceStore,
    sanitize: bool = False,
    in_process: bool = False,
) -> Outcome:
    """One attempt: fire the job's faults, run it, capture the outcome.

    In-process, a ``crash`` or ``hang`` must not take the caller down,
    so worker faults degrade to transient errors there.  A
    ``corrupt_blob`` attempt damages the disk blob and reads the trace
    back through a fresh store: a worker's warm memory LRU would
    otherwise serve a clean copy past the quarantine.
    """
    try:
        if "corrupt_blob" in kinds:
            store = TraceStore(store.root, fsync=False)
            corrupt_job_blobs(store, job)
        if in_process:
            apply_inprocess_faults(kinds)
        else:
            apply_child_faults(kinds)  # may _exit, hang, or raise
        stats = execute_job(job, store=store, sanitize=sanitize)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("ok", stats.snapshot())


def _worker_entry(conn: Connection, store_root: str, obs_mode: str, obs_log: str) -> None:
    """Worker process: answer messages until ``None`` or a closed pipe.

    Traces come from the store under ``store_root`` (memory LRU, then
    the CRC-checked disk blob).  Each job's faults fire before it runs
    (:func:`_attempt`).

    Span records of traced jobs are built here, with this process's
    clocks and pid, and travel back with the metric deltas; nothing is
    written locally, so a message retried after a worker death merges
    the spans of the one attempt the parent received.
    """
    store = TraceStore(store_root, fsync=False)
    set_default_store(store)
    if obs_mode != "off" and obs_log:
        obs_events.configure(mode=obs_mode, log_path=obs_log)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        jobs, traces, faults = message
        results: list[Outcome] = []
        spans: list[dict[str, Any]] = []
        for job, wire, kinds in zip(jobs, traces, faults):
            started = time.monotonic()
            results.append(_attempt(job, kinds, store))
            ctx = TraceContext.from_wire(wire) if wire else None
            if ctx is not None and ctx.sampled and obs_events.enabled():
                spans.append(_obs.stage_record(
                    "kernel", ctx, time.monotonic() - started,
                    benchmark=job.benchmark,
                ))
        metrics = (
            default_registry().drain_deltas() if obs_events.metrics_enabled() else []
        )
        try:
            conn.send((results, metrics, spans))
        except OSError:
            break
    with contextlib.suppress(OSError):
        conn.close()


@dataclass(slots=True)
class _Worker:
    """Parent-side handle of one worker process."""

    proc: Any
    conn: Any
    started: float
    failures: int = 0  # consecutive deaths/timeouts (restart backoff)
    batches: int = 0
    jobs: int = 0
    restarts: int = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "pid": self.proc.pid,
            "alive": self.proc.is_alive(),
            "uptime_s": round(max(0.0, time.monotonic() - self.started), 3),
            "batches": self.batches,
            "jobs": self.jobs,
            "restarts": self.restarts,
        }


class Supervisor:
    """``workers`` persistent worker processes (zero: in-process only).

    Args:
        workers: process count; ``0`` runs every job in this process.
        store: trace store whose root the workers share.
        config: deadline, retry, restart and fallback knobs.
        sanitize: shadow-check every access of in-process runs (the
            callers give sanitized sweeps zero workers).
    """

    def __init__(
        self,
        workers: int,
        store: TraceStore,
        config: ResilienceConfig = ResilienceConfig(),
        sanitize: bool = False,
    ) -> None:
        self.store = store
        self.config = config
        self.sanitize = sanitize
        self.fallback_batches = 0
        self._rng = Random(config.backoff_seed)
        self._lock = threading.Lock()  # seeded backoff draws
        self._local = threading.Lock()  # one in-process job at a time
        self._closed = False
        self._ctx = multiprocessing.get_context()
        self._workers = [self._spawn() for _ in range(workers)]
        self._locks = [threading.Lock() for _ in self._workers]

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(
                child_conn,
                str(self.store.root),
                obs_events.mode(),
                str(obs_events.active_log_path()),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn, started=time.monotonic())

    @staticmethod
    def _stop(worker: _Worker, timeout: float) -> int | None:
        """Join ``worker``, killing it after ``timeout``; its exit code."""
        worker.proc.join(timeout=timeout)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=timeout)
        with contextlib.suppress(OSError):
            worker.conn.close()
        exitcode: int | None = worker.proc.exitcode
        return exitcode

    def _restart(self, wid: int) -> int | None:
        """Replace worker ``wid`` after a backoff; returns its exit code."""
        worker = self._workers[wid]
        worker.proc.kill()  # dead already, or past its deadline
        exitcode = self._stop(worker, 5.0)
        if not self._closed:
            worker.failures += 1
            time.sleep(self.backoff(worker.failures - 1))
            fresh = self._spawn()
            worker.proc, worker.conn, worker.started = fresh.proc, fresh.conn, fresh.started
            worker.restarts += 1
        return exitcode

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent); kills stragglers."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        for worker in self._workers:
            self._stop(worker, timeout)

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def backoff(self, attempt: int) -> float:
        """The seeded retry delay before attempt ``attempt + 1``."""
        with self._lock:
            return self.config.retry.delay(attempt, self._rng)

    # -- routing and introspection -------------------------------------
    def shard_of(self, job: SweepJob) -> int:
        """Worker index for ``job`` (trace-affinity routing)."""
        return trace_shard_key(job) % max(1, len(self._workers))

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-worker pid, liveness, uptime, message/job and restart counts."""
        return [worker.snapshot() for worker in self._workers]

    # -- one message ---------------------------------------------------
    def _exchange(
        self,
        wid: int,
        jobs: list[SweepJob],
        traces: Sequence[str | None],
        faults: Sequence[tuple[str, ...]],
    ) -> tuple[list[Outcome] | None, str]:
        """One round trip with worker ``wid`` (its lock held).

        Returns ``(results, "")``, or ``(None, reason)`` after the
        worker died or overran its deadline and was restarted.
        """
        worker = self._workers[wid]
        deadline = self.config.job_timeout * len(jobs)
        try:
            worker.conn.send((jobs, list(traces), list(faults)))
            if worker.conn.poll(deadline):
                results, metrics, spans = worker.conn.recv()
                reason = ""
            else:
                reason = f"hung: exceeded job_timeout={self.config.job_timeout:.1f}s"
        except (EOFError, OSError):
            reason = "died"
        if reason:
            exitcode = self._restart(wid)
            if reason == "died":
                reason = f"worker died (exit code {exitcode})"
            return None, reason
        worker.failures = 0
        worker.batches += 1
        worker.jobs += len(jobs)
        if metrics:
            default_registry().merge_deltas(metrics)
        for record in spans:
            obs_events.emit_raw(record)
        return results, ""

    def _run_local(
        self, jobs: Sequence[SweepJob], faults: Sequence[tuple[str, ...]]
    ) -> list[Outcome]:
        """Run jobs in this process, one caller at a time."""
        with self._local:
            return [
                _attempt(job, kinds, self.store, self.sanitize, in_process=True)
                for job, kinds in zip(jobs, faults)
            ]

    # -- entry points --------------------------------------------------
    def call(
        self,
        wid: int,
        jobs: Sequence[SweepJob],
        traces: Sequence[str | None] | None = None,
    ) -> list[Outcome]:
        """Run one batch on worker ``wid`` and block for its outcomes.

        ``traces`` (aligned with ``jobs``) carries per-job trace
        contexts in wire form.  A dead or hung worker is restarted and
        the batch re-sent; after ``max_pool_failures`` consecutive
        failures the batch runs in-process instead of failing.
        In-job errors come back as ``("error", message)`` outcomes.
        """
        jobs = list(jobs)
        wires = list(traces) if traces is not None else [None] * len(jobs)
        faults: list[tuple[str, ...]] = [()] * len(jobs)
        with self._locks[wid]:
            for _ in range(self.config.max_pool_failures):
                if self._closed:
                    break
                results, _reason = self._exchange(wid, jobs, wires, faults)
                if results is not None:
                    return results
                _obs.serve_shard_restarted(wid)
        self.fallback_batches += 1
        _obs.serve_fallback_batch(wid)
        return self._run_local(jobs, faults)

    def run(
        self,
        jobs: Sequence[SweepJob],
        todo: Iterable[int] | None = None,
        plan: FaultPlan | None = None,
        commit: Commit | None = None,
    ) -> list[CacheStats]:
        """Run ``jobs[i]`` for each ``i`` in ``todo`` (default: all).

        Returns the stats of the ``todo`` jobs, in ``todo`` order.
        A failed attempt is retried with backoff up to
        ``retry.max_attempts`` times, then the sweep raises
        :class:`SweepFailure`.  ``commit`` sees each finished job once,
        before ``run`` returns; an exception it raises fails the sweep.
        ``plan`` injects faults by ``(job index, attempt)``.
        """
        sweep = _Sweep(
            list(jobs), range(len(jobs)) if todo is None else todo,
            self, plan, commit,
        )
        if self._workers:
            # Each distinct trace on disk before dispatch, so no worker
            # generates one; a trace the store cannot build fails the
            # attempts of its jobs instead.
            traces = dict.fromkeys(
                (job.benchmark, job.side, job.n, job.seed, job.with_kinds)
                for job in (sweep.jobs[index] for index in sweep.todo)
            )
            for trace in traces:
                with contextlib.suppress(OSError, ValueError, KeyError):
                    self.store.ensure(*trace)
            threads = [
                threading.Thread(target=self._drain, args=(sweep, wid), daemon=True)
                for wid in range(len(self._workers))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self._drain(sweep, None)  # in-process: no workers, or degraded
        if sweep.error is not None:
            raise sweep.error
        return [sweep.results[index] for index in sweep.todo]

    def _drain(self, sweep: "_Sweep", wid: int | None) -> None:
        """Run sweep attempts on worker ``wid`` (``None``: in-process)."""
        try:
            while not self._closed and (entry := sweep.take(wid is not None)):
                index, attempt = entry
                job, kinds = sweep.prepare(index, attempt)
                if wid is None:
                    sweep.finish(index, attempt, self._run_local([job], [kinds])[0])
                    continue
                with self._locks[wid]:
                    results, reason = self._exchange(wid, [job], [None], [kinds])
                if results is None:
                    sweep.worker_failed(index, attempt, reason)
                else:
                    sweep.finish(index, attempt, results[0])
        except BaseException as exc:  # surfaced by run() on its thread
            sweep.fail(exc)


class _Sweep:
    """The shared queue and failure state of one :meth:`Supervisor.run`.

    First attempts go out in job order (callers sort jobs by trace, so
    a worker replays runs of one trace); retries wait in a heap until
    their backoff expires.
    """

    def __init__(
        self,
        jobs: list[SweepJob],
        todo: Iterable[int],
        supervisor: Supervisor,
        plan: FaultPlan | None,
        commit: Commit | None,
    ) -> None:
        self.jobs = jobs
        self.todo = list(todo)
        self.supervisor = supervisor
        self.config = supervisor.config
        self.plan = plan
        self.commit = commit
        self.results: dict[int, CacheStats] = {}
        self.pending = deque(self.todo)
        self.retries: list[tuple[float, int, int]] = []
        self.remaining = len(self.todo)
        self.failures = 0  # consecutive worker failures
        self.degraded = False
        self.error: BaseException | None = None
        self.cond = threading.Condition()

    def take(self, worker: bool) -> tuple[int, int] | None:
        """The next ``(index, attempt)``: a due retry, then the next job;
        ``None`` when done, failed, or (for a worker) degraded.  Blocks
        while the rest is backed off or in flight elsewhere."""
        with self.cond:
            while True:
                if self.error is not None or self.remaining == 0:
                    return None
                if worker and self.degraded:
                    return None
                now = time.monotonic()
                if self.retries and self.retries[0][0] <= now:
                    _, index, attempt = heapq.heappop(self.retries)
                    return index, attempt
                if self.pending:
                    return self.pending.popleft(), 0
                self.cond.wait(self.retries[0][0] - now if self.retries else None)

    def prepare(self, index: int, attempt: int) -> tuple[SweepJob, tuple[str, ...]]:
        """The job and the fault kinds its attempt fires."""
        job = self.jobs[index]
        _obs.job_event("running", job_label(job), benchmark=job.benchmark, attempt=attempt)
        if self.plan is None:
            return job, ()
        kinds = self.plan.child_kinds(index, attempt)
        if self.plan.matches("corrupt_blob", index, attempt):
            kinds += ("corrupt_blob",)
        return job, kinds

    def finish(self, index: int, attempt: int, outcome: Outcome) -> None:
        status, payload = outcome
        if status != "ok":
            self.retry(index, attempt, str(payload))
            return
        stats = CacheStats.from_snapshot(payload)
        if self.commit is not None:
            self.commit(index, attempt, stats)
        with self.cond:
            self.failures = 0
            self.results[index] = stats
            self.remaining -= 1
            self.cond.notify_all()

    def worker_failed(self, index: int, attempt: int, reason: str) -> None:
        with self.cond:
            self.failures += 1
            if self.failures >= self.config.max_pool_failures and not self.degraded:
                self.degraded = True
                log.warning(
                    "%d consecutive worker failures; degrading to serial "
                    "in-process execution for the remaining job(s)",
                    self.failures,
                )
        self.retry(index, attempt, reason)

    def retry(self, index: int, attempt: int, reason: str) -> None:
        """Queue the next attempt with backoff, or fail the sweep."""
        job = self.jobs[index]
        budget = self.config.retry.max_attempts
        if attempt + 1 >= budget:
            _obs.job_event(
                "failed", job_label(job), benchmark=job.benchmark,
                attempt=attempt, reason=reason,
            )
            self.fail(SweepFailure(
                f"job {index} ({job.spec}/{job.benchmark}) failed after "
                f"{budget} attempt(s): {reason}"
            ))
            return
        delay = self.supervisor.backoff(attempt)
        _obs.job_event(
            "retried", job_label(job), benchmark=job.benchmark,
            attempt=attempt, reason=reason, delay_s=round(delay, 3),
        )
        log.warning(
            "job %d (%s/%s) attempt %d failed (%s); retrying in %.3fs",
            index, job.spec, job.benchmark, attempt, reason, delay,
        )
        with self.cond:
            heapq.heappush(self.retries, (time.monotonic() + delay, index, attempt + 1))
            self.cond.notify_all()

    def fail(self, exc: BaseException) -> None:
        with self.cond:
            if self.error is None:
                self.error = exc
            self.cond.notify_all()
