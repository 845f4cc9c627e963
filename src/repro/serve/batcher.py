"""Micro-batching coalescer: many small requests, few worker round-trips.

Concurrent ``simulate`` requests are cheap individually but expensive
collectively if each one pays a worker-pipe round-trip.  The batcher
holds each admitted job for at most ``window`` seconds and flushes
everything that accumulated for a shard as **one** batch message, which
the shard replays through the ``access_trace`` batch kernels job by
job.  Two levels of coalescing happen:

* **Identical-job coalescing** — requests for the *same* deterministic
  job (same spec, benchmark, side, n, seed, geometry, policy) attach to
  one pending entry and share a single execution; every waiter gets the
  same snapshot.  Simulations are pure functions of the job, so this is
  semantically invisible.  Jobs are identified by
  :meth:`~repro.engine.runner.SweepJob.key`, the same key the result
  cache files them under.
* **Cross-window singleflight** — coalescing does not stop when the
  window closes: a job whose batch is already executing keeps accepting
  waiters until its result lands, so a burst of identical requests
  spanning many windows still costs one execution.
* **Batch coalescing** — distinct jobs bound for the same shard within
  the window travel in one pipe message, amortising IPC and scheduling.

The flush trigger is whichever comes first: the window timer, or the
pending set reaching ``max_batch`` entries.  Metrics
(:class:`BatchMetrics`) feed the server's ``status`` response — the
``mean_batch_size`` counter is how the load generator proves the
batcher actually coalesces under concurrency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine.runner import SweepJob
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs.instrument import record
from repro.obs.tracectx import TraceContext
from repro.serve.workers import ShardPool


class SimulationError(RuntimeError):
    """A worker reported a job failure (bad spec, trace error, ...)."""


@dataclass(slots=True)
class BatchMetrics:
    """Coalescing counters (exported via the ``status`` op)."""

    requests: int = 0  #: jobs admitted to the batcher
    coalesced: int = 0  #: requests that piggybacked on an identical pending job
    coalesced_inflight: int = 0  #: ...of which joined an already-executing batch
    batches: int = 0  #: worker round-trips
    batched_jobs: int = 0  #: distinct jobs sent across all batches
    batch_errors: int = 0  #: jobs whose worker reported an error

    @property
    def mean_batch_size(self) -> float:
        """Admitted requests per worker round-trip (> 1 means coalescing)."""
        if not self.batches:
            return 0.0
        return self.requests / self.batches

    def snapshot(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "coalesced_inflight": self.coalesced_inflight,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "batch_errors": self.batch_errors,
            "mean_batch_size": round(self.mean_batch_size, 3),
        }


@dataclass(slots=True)
class _Entry:
    """One distinct pending job and everyone waiting on it."""

    job: SweepJob
    futures: list = field(default_factory=list)
    requests: int = 0
    #: per-waiter ``(trace context or None, submit time)`` — feeds the
    #: batch_window/shard stage attribution when the batch retires.
    waiters: list[tuple[TraceContext | None, float]] = field(
        default_factory=list
    )


class MicroBatcher:
    """Gather concurrent jobs per shard; flush as single batches.

    Args:
        pool: the shard pool executing the batches.
        window: max seconds a job waits for company before its shard's
            pending set is flushed.
        max_batch: pending-entry count that forces an immediate flush.
    """

    def __init__(
        self, pool: ShardPool, window: float = 0.002, max_batch: int = 64
    ) -> None:
        self.pool = pool
        self.window = window
        self.max_batch = max(1, max_batch)
        self.metrics = BatchMetrics()
        self._pending: dict[int, dict[str, _Entry]] = {}
        #: job key -> entry whose batch is currently executing;
        #: late identical requests attach here (cross-window singleflight).
        self._executing: dict[str, _Entry] = {}
        self._timers: dict[int, asyncio.Task] = {}
        self._inflight: set[asyncio.Task] = set()

    # -- submission ----------------------------------------------------
    async def submit(
        self, job: SweepJob, trace: TraceContext | None = None
    ) -> dict[str, Any]:
        """Queue one job; returns its ``CacheStats.snapshot()`` dict.

        ``trace`` attributes this waiter's batch-window and shard time
        to its request's distributed trace.

        Raises :class:`SimulationError` if the worker reports a failure
        for this job.
        """
        loop = asyncio.get_running_loop()
        key = job.key()
        self.metrics.requests += 1
        executing = self._executing.get(key)
        if executing is not None:
            # The job is already on a worker; ride that execution.
            self.metrics.coalesced += 1
            self.metrics.coalesced_inflight += 1
            future: asyncio.Future = loop.create_future()
            executing.futures.append(future)
            executing.requests += 1
            executing.waiters.append((trace, time.monotonic()))
            return await future
        shard = self.pool.shard_of(job)
        bucket = self._pending.setdefault(shard, {})
        entry = bucket.get(key)
        if entry is None:
            entry = _Entry(job=job)
            bucket[key] = entry
        else:
            self.metrics.coalesced += 1
        future = loop.create_future()
        entry.futures.append(future)
        entry.requests += 1
        entry.waiters.append((trace, time.monotonic()))
        if len(bucket) >= self.max_batch:
            self._flush_shard(shard)
        elif shard not in self._timers:
            self._timers[shard] = loop.create_task(self._flush_after(shard))
        return await future

    # -- flushing ------------------------------------------------------
    async def _flush_after(self, shard: int) -> None:
        await asyncio.sleep(self.window)
        self._timers.pop(shard, None)
        self._launch_flush(shard)

    def _flush_shard(self, shard: int) -> None:
        """Immediate flush (max_batch hit or drain): cancel the timer."""
        timer = self._timers.pop(shard, None)
        if timer is not None and not timer.done():
            timer.cancel()
        self._launch_flush(shard)

    def _launch_flush(self, shard: int) -> None:
        bucket = self._pending.pop(shard, None)
        if not bucket:
            return
        # From here until the batch resolves, identical submissions
        # attach to these entries instead of queueing a re-execution.
        self._executing.update(bucket)
        task = asyncio.get_running_loop().create_task(
            self._run_batch(shard, bucket)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, shard: int, bucket: dict[str, _Entry]) -> None:
        entries = list(bucket.values())
        self.metrics.batches += 1
        self.metrics.batched_jobs += len(entries)
        # Registry-only telemetry: no file I/O on the event loop (BCL011).
        record("repro_serve_batch_size", len(entries))
        record("repro_serve_window_occupancy",
               len(entries) / self.max_batch if self.max_batch > 0 else 0.0)
        record("repro_serve_batches_total", shard=shard)
        flush_start = time.monotonic()
        flushed = [len(entry.waiters) for entry in entries]
        shard_ctxs = [self._close_windows(entry, flush_start)
                      for entry in entries]
        try:
            results = await self.pool.run_batch(
                shard,
                [entry.job for entry in entries],
                [ctx.to_wire() if ctx is not None else None for ctx in shard_ctxs],
            )
        except Exception as exc:
            self._retire(bucket)
            for entry in entries:
                self._resolve(entry, "error", f"batch failed: {exc}")
            return
        end = time.monotonic()
        # Retire before resolving, in one scheduling step: once a
        # future resolves nobody may attach to its entry anymore.
        self._retire(bucket)
        for entry, ctx, seen in zip(entries, shard_ctxs, flushed):
            self._emit_shard_stages(entry, ctx, seen, shard, flush_start, end)
        for entry, (status, payload) in zip(entries, results):
            self._resolve(entry, status, payload)

    @staticmethod
    def _close_windows(
        entry: _Entry, flush_start: float
    ) -> TraceContext | None:
        """Record each waiter's gather-window wait; derive the shard span.

        Returns the entry's pre-derived ``shard`` stage context (the
        first sampled waiter's child) so the worker can parent its
        ``kernel`` span under it — the shard record itself is emitted
        by :meth:`_emit_shard_stages` once the round trip lands.
        """
        ctx: TraceContext | None = None
        for waiter_trace, submitted in entry.waiters:
            _obs.stage_event(
                "batch_window",
                max(0.0, flush_start - submitted),
                trace=waiter_trace,
            )
            if ctx is None and waiter_trace is not None and waiter_trace.sampled:
                ctx = waiter_trace.child("stage.shard")
        return ctx

    def _emit_shard_stages(
        self,
        entry: _Entry,
        ctx: TraceContext | None,
        seen: int,
        shard: int,
        flush_start: float,
        end: float,
    ) -> None:
        """Attribute the worker round trip to every waiter's trace.

        The first sampled waiter owns the pre-derived context ``ctx``
        (the kernel span's parent); every other waiter gets its own
        shard span.  Late attachers (cross-window singleflight, index
        ``>= seen``) are billed from their attach time, not the flush.
        """
        leader_pending = ctx is not None
        for index, (waiter_trace, submitted) in enumerate(entry.waiters):
            start = flush_start if index < seen else submitted
            seconds = max(0.0, end - start)
            if (leader_pending and waiter_trace is not None
                    and waiter_trace.sampled):
                leader_pending = False
                assert ctx is not None
                obs_events.emit_raw(
                    _obs.stage_record_for("shard", ctx, seconds, shard=shard)
                )
            else:
                _obs.stage_event(
                    "shard", seconds, trace=waiter_trace, shard=shard
                )

    def _retire(self, bucket: dict[str, _Entry]) -> None:
        for key, entry in bucket.items():
            if self._executing.get(key) is entry:
                self._executing.pop(key, None)

    def _resolve(self, entry: _Entry, status: str, payload: Any) -> None:
        if status != "ok":
            self.metrics.batch_errors += 1
        for future in entry.futures:
            if future.done():  # waiter disconnected / cancelled
                continue
            if status == "ok":
                future.set_result(payload)
            else:
                future.set_exception(SimulationError(str(payload)))

    # -- drain ---------------------------------------------------------
    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches."""
        for shard in list(self._pending):
            self._flush_shard(shard)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @property
    def pending_jobs(self) -> int:
        """Distinct jobs currently waiting for a flush."""
        return sum(len(bucket) for bucket in self._pending.values())
