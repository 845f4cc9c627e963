"""Parallel experiment engine: trace store, runner, supervisor, journal, bench.

Seven pieces (see ``docs/engine.md``):

* :mod:`repro.engine.trace_store` — on-disk ``array('Q')`` blobs (CRC32
  framed, corrupt files quarantined + regenerated) so every synthetic
  trace is generated exactly once per machine;
* :mod:`repro.engine.runner` — :class:`SweepJob`, :func:`execute_job`
  and :func:`run_sweep`, with bit-identical statistics at any worker
  count;
* :mod:`repro.engine.workers` — the one worker supervisor: persistent
  worker processes with trace-affinity routing, per-job deadlines,
  restarts, retries and in-process fallback, behind every parallel
  sweep and ``bcache-serve``'s shards;
* :mod:`repro.engine.results` — the content-addressed result store
  (:class:`ResultCache`): the served result cache and, rooted at
  ``<run_root>/<run_id>/``, the run journal;
* :mod:`repro.engine.resilience` — the durable run journal behind
  ``run_sweep(..., run_id=...)``, around the same supervisor;
* :mod:`repro.engine.faultinject` — deterministic fault injection
  (:class:`FaultPlan`) proving every recovery path, plus the CI chaos
  harness (``python -m repro.engine.faultinject``);
* :mod:`repro.engine.bench` — the ``bcache-bench`` perf-tracking
  harness behind ``BENCH_engine.json``.
"""

import importlib
from typing import Any

from repro.engine.runner import (
    SweepJob,
    available_cpus,
    default_jobs,
    execute_job,
    run_sweep,
)
from repro.engine.trace_store import TraceStore, default_store, set_default_store

#: Symbols resolved lazily (PEP 562) so ``python -m
#: repro.engine.faultinject`` does not double-import its own module and
#: serial sweeps never pay the supervisor import.
_LAZY = {
    "FAULT_KINDS": "faultinject",
    "FaultPlan": "faultinject",
    "FaultPlanError": "faultinject",
    "FaultSpec": "faultinject",
    "InjectedFault": "faultinject",
    "ResilienceConfig": "workers",
    "ResultCache": "results",
    "RetryPolicy": "workers",
    "SweepFailure": "workers",
    "default_run_root": "resilience",
    "engine_fingerprint": "results",
    "job_hash": "results",
    "job_key": "resilience",
}


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "ResultCache",
    "RetryPolicy",
    "SweepFailure",
    "SweepJob",
    "TraceStore",
    "available_cpus",
    "default_jobs",
    "default_run_root",
    "default_store",
    "engine_fingerprint",
    "execute_job",
    "job_hash",
    "job_key",
    "run_sweep",
    "set_default_store",
]
