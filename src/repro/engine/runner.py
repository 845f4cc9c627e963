"""Sweep runner: fan (spec, benchmark, side, scale) jobs across workers.

A sweep is a list of :class:`SweepJob` descriptions — (spec, benchmark,
side, trace length, seed, geometry) tuples.  Each job is independent
and fully deterministic (seeded traces, seeded policies), so the runner
guarantees **bit-identical statistics** regardless of worker count: the
result list is order-aligned with the job list and every job runs
:func:`execute_job`, the code path the serial harness uses.

``workers <= 1`` (and every sanitized run) is a plain in-process loop.
``workers > 1`` runs on the worker supervisor
(:class:`repro.engine.workers.Supervisor`): persistent processes, kept
from one sweep to the next, that read each trace from the store as a
serial run does, with per-job deadlines, restarts, retries and
in-process fallback.

A sanitized run replays serially, per access, with invariant checks
(see ``docs/analysis.md``): the sanitizer's value is the invariant
trail, not throughput.

``run_id``, ``resilience`` or ``fault_plan`` route a sweep through
:mod:`repro.engine.resilience`: the run journal (one durable result
entry per job, resumable after a kill) and fault injection around the
same supervisor — see ``docs/engine.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.caches import make_cache
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats
from repro.engine.trace_store import TraceStore, default_store

if TYPE_CHECKING:  # resilience and workers import this module; keep the cycle lazy
    from repro.engine.faultinject import FaultPlan
    from repro.engine.workers import ResilienceConfig

ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True, slots=True)
class SweepJob:
    """One (cache config, reference stream) simulation.

    Attributes:
        spec: factory spec string (``dm``, ``8way``, ``mf8_bas8``, ...).
        benchmark: synthetic SPEC2K benchmark name.
        side: ``data``/``instr`` (address streams) or ``combined``
            (access streams, requires ``with_kinds``).
        n: trace length (references, or instructions for ``combined``).
        seed: trace seed.
        size: cache size in bytes.
        line_size: block size in bytes.
        policy: replacement policy where applicable.
        with_kinds: replay the full access stream (reads + writes +
            ifetches) instead of the reads-only address stream.
    """

    spec: str
    benchmark: str
    side: str = "data"
    n: int = 200_000
    seed: int = 2006
    size: int = 16 * 1024
    line_size: int = 32
    policy: str = "lru"
    with_kinds: bool = False

    def key(self) -> str:
        """The one serialisation of this job's identity.

        Canonical JSON of every dataclass field (sorted keys, fixed
        separators), so no field can be left out of it.  Batcher
        coalescing, cluster dedup and the result store all key on it.
        """
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Containers and CI runners routinely pin a process to a slice of the
    machine; ``os.cpu_count()`` still reports every core.  Honouring
    ``os.sched_getaffinity(0)`` (where the platform provides it) keeps
    worker pools and server shards from oversubscribing a 2-CPU cgroup
    on a 64-core host.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` (capped to usable CPUs) or 1.

    The cap uses :func:`available_cpus`, so an over-eager
    ``REPRO_JOBS=64`` inside a 2-CPU container forks 2 workers, not 64.
    """
    try:
        requested = int(os.environ.get(ENV_JOBS, "1"))
    except ValueError:
        return 1
    return max(1, min(requested, available_cpus()))


def job_label(job: SweepJob) -> str:
    """Human-readable job key used in telemetry events and bcache-top."""
    return (
        f"{job.spec}:{job.benchmark}:{job.side}"
        f":n{job.n}:s{job.seed}:{job.size}b{job.line_size}"
    )


def execute_job(
    job: SweepJob,
    store: TraceStore | None = None,
    sanitize: bool = False,
) -> CacheStats:
    """Run one job to completion in this process; returns its stats.

    This is the single execution path shared by the serial harness
    and the supervisor's workers, which is what makes parallel results
    bit-identical to serial ones.
    """
    store = store if store is not None else default_store()
    label = job_label(job)
    with obs_events.span(
        "job.run", key=label, benchmark=job.benchmark, spec=job.spec
    ):
        cache = make_cache(
            job.spec, size=job.size, line_size=job.line_size, policy=job.policy
        )
        if job.with_kinds:
            addresses, kinds = store.accesses(job.benchmark, job.side, job.n, job.seed)
        else:
            addresses = store.addresses(job.benchmark, job.side, job.n, job.seed)
            kinds = None
        if sanitize:
            from repro.analysis.sanitizer import SanitizedCache, strict_capable

            checked = SanitizedCache(
                cache, strict=strict_capable(cache), check_interval=1024
            )
            checked.access_trace(addresses, kinds)
            checked.finalize()
        else:
            cache.access_trace(addresses, kinds)
    _obs.job_event(
        "done",
        label,
        benchmark=job.benchmark,
        miss_rate=round(cache.stats.miss_rate, 6),
        accesses=cache.stats.accesses,
        misses=cache.stats.misses,
    )
    return cache.stats


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: int | None = None,
    sanitize: bool = False,
    store: TraceStore | None = None,
    *,
    run_id: str | None = None,
    resilience: "ResilienceConfig | None" = None,
    fault_plan: "FaultPlan | None" = None,
    run_root: str | Path | None = None,
) -> list[CacheStats]:
    """Run every job; returns stats order-aligned with the job list.

    Args:
        jobs: the sweep to run.
        workers: process count; ``None`` reads ``$REPRO_JOBS``
            (default 1).  ``<= 1`` runs serially in this process.
        sanitize: shadow-check every access — forces the serial
            per-access path (the parallel batch kernels bypass the
            per-access hooks by design).  Composes with ``run_id``:
            a sanitized run is journaled and resumable like any other.
        store: trace store to use (defaults to the process-wide one).
        run_id: persist each completed job as a result-cache entry
            under ``<run_root>/<run_id>/`` and resume from any entries
            already there (create-or-resume semantics).
        resilience: retry/timeout/fallback knobs
            (:class:`repro.engine.workers.ResilienceConfig`) for the
            supervisor; without it the defaults apply.
        fault_plan: deterministic fault injection
            (:class:`repro.engine.faultinject.FaultPlan`) — testing/CI
            only.
        run_root: journal root override (default ``$REPRO_RUN_ROOT`` or
            ``~/.cache/bcache-repro/runs``).

    Any of ``run_id``/``resilience``/``fault_plan`` routes through
    :func:`repro.engine.resilience.run_resilient`, which adds the
    crash-consistent run journal and fault injection around the same
    supervisor — still bit-identical to a serial run.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_jobs()
    store = store if store is not None else default_store()
    if run_id or resilience is not None or fault_plan is not None:
        from repro.engine.resilience import run_resilient
        from repro.engine.workers import ResilienceConfig

        return run_resilient(
            jobs,
            workers=workers,
            store=store,
            config=resilience if resilience is not None else ResilienceConfig(),
            sanitize=sanitize,
            run_id=run_id,
            run_root=run_root,
            fault_plan=fault_plan,
        )
    with obs_events.span(
        "engine.sweep", jobs=len(jobs), workers=workers, sanitize=sanitize
    ):
        if sanitize or workers <= 1 or len(jobs) <= 1:
            return [execute_job(job, store=store, sanitize=sanitize) for job in jobs]
        from repro.engine.workers import shared_supervisor

        return shared_supervisor(min(workers, len(jobs)), store).run(jobs)
