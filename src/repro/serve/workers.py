"""The server's shards: an asyncio adapter over the worker supervisor.

``bcache-serve`` keeps ``shards`` worker processes alive for its whole
life.  They are the persistent workers of one
:class:`repro.engine.workers.Supervisor`, the same supervisor every
sweep runs on: each job runs through
:func:`repro.engine.runner.execute_job` (so served statistics stay
bit-identical to a local replay), jobs are routed by trace affinity
(so a worker's trace LRU stays hot), a worker that dies or
overruns its ``job_timeout`` deadline is restarted after a backoff, and
a batch whose worker keeps failing runs in-process instead.

This module adds what only the server needs: a result-cache filter in
front of the workers, and :meth:`ShardPool.run_batch`, which hands the
blocking supervisor call to the pool's private thread executor — never
the event loop (rule BCL011).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.runner import SweepJob
from repro.engine.trace_store import TraceStore, default_store
from repro.engine.workers import Outcome, ResilienceConfig, Supervisor
from repro.obs.instrument import record

if TYPE_CHECKING:  # annotation only; the pool works without a cache
    from repro.engine.results import ResultCache


class ShardPool:
    """``shards`` persistent worker processes with affinity routing.

    Args:
        shards: worker process count (>= 1).
        store: trace store whose root the workers share (defaults to
            the process-wide store).
        config: the supervisor's deadline, restart backoff and fallback
            (:class:`~repro.engine.workers.ResilienceConfig`).
        cache: optional :class:`~repro.engine.results.ResultCache`;
            when set, every batch consults it before the worker round
            trip (cached jobs never reach a worker) and fresh results
            are written through.  Lookups and writes happen on the
            pool's ``shard-io`` executor threads, never the event loop.
    """

    def __init__(
        self,
        shards: int,
        store: TraceStore | None = None,
        config: ResilienceConfig = ResilienceConfig(),
        cache: "ResultCache | None" = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.store = store if store is not None else default_store()
        self.cache = cache
        self.supervisor = Supervisor(shards, self.store, config)
        self._inflight = [0] * shards
        self._executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard-io"
        )

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent); kills stragglers."""
        self.supervisor.close(timeout=timeout)
        self._executor.shutdown(wait=False)

    def shard_of(self, job: SweepJob) -> int:
        """Shard index for ``job`` (trace-affinity routing)."""
        return self.supervisor.shard_of(job)

    async def run_batch(
        self,
        shard_id: int,
        jobs: Sequence[SweepJob],
        traces: Sequence[str | None] | None = None,
    ) -> list[Outcome]:
        """Run one batch on one shard without blocking the event loop.

        ``traces`` (aligned with ``jobs``) carries per-job trace
        contexts in wire form; a traced job's kernel execution comes
        back as a span delta and lands in the parent's event log.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.run_batch_blocking, shard_id, jobs, traces
        )

    def run_batch_blocking(
        self,
        shard_id: int,
        jobs: Sequence[SweepJob],
        traces: Sequence[str | None] | None = None,
    ) -> list[Outcome]:
        """One batch: result-cache filter, then the supervisor call.

        With a cache attached, jobs it can answer never reach a worker;
        the remainder execute and are written through.  Blocking: runs
        on a ``shard-io`` thread, or directly in tests and drains.
        """
        jobs = list(jobs)
        cache = self.cache
        results: list[Outcome | None] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            snapshot = cache.get(job) if cache is not None else None
            if snapshot is not None:
                results[index] = ("ok", snapshot)
        misses = [index for index, entry in enumerate(results) if entry is None]
        if misses:
            self._inflight[shard_id] += 1
            record("repro_serve_queue_depth", self._inflight[shard_id], shard=shard_id)
            try:
                fresh = self.supervisor.call(
                    shard_id,
                    [jobs[i] for i in misses],
                    [traces[i] for i in misses] if traces is not None else None,
                )
            finally:
                self._inflight[shard_id] -= 1
                record("repro_serve_queue_depth", self._inflight[shard_id], shard=shard_id)
            for index, outcome in zip(misses, fresh):
                results[index] = outcome
                if cache is not None and outcome[0] == "ok":
                    cache.put(jobs[index], outcome[1])
        return [entry for entry in results if entry is not None]

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-shard metrics for the ``status`` response."""
        return self.supervisor.snapshot()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
