"""The metric catalogue, its one writer, and the stage/kernel/job helpers.

Every series the repo records is one row of :data:`CATALOGUE` (name,
kind, help text, label names, buckets where not the default).
:func:`record` is the only code that turns a series name into a
registry family; it refuses a name the catalogue lacks and a label set
other than the declared one (``tests/test_obs_catalogue.py`` keeps
``docs/observability.md`` in step with the rows).  A ``gated`` row —
kernel, trace store, engine jobs — is recorded only under
``REPRO_OBS=full``; the serve, result-cache, admission, gateway and
stage series are always on, a server being instrumented by definition.
Call sites that also emit an event guard both behind one
``events.enabled()`` check, so the ``off`` tier costs one comparison.
Instrumentation only reads values handed to it: simulation statistics
stay bit-identical whatever the tier.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import events
from repro.obs.metrics import (
    SIZE_BUCKETS, Counter, Gauge, Histogram, MetricError, default_registry,
)
from repro.obs.tracectx import TraceContext

#: How :func:`record` applies a value to each kind of family.
_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


@dataclass(frozen=True)
class Series:
    """One catalogue row: a metric family and its declared label names."""

    name: str
    kind: str
    help: str
    labels: tuple[str, ...] = ()
    gated: bool = False
    buckets: tuple[float, ...] | None = None
    keys: frozenset[str] = field(init=False, repr=False, compare=False)
    update: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", frozenset(self.labels))
        object.__setattr__(self, "update", _UPDATE[self.kind])


_ROWS = (
    # Request-path stage attribution (always on; STAGES below).
    Series("repro_stage_seconds", "histogram",
           "Request-path wall time attributed per pipeline stage", ("stage",)),
    # Library hot paths (REPRO_OBS=full only).
    Series("repro_kernel_batch_seconds", "histogram",
           "Wall time of one Cache.access_trace batch, by kernel path "
           "(native or stdlib)",
           ("cache", "path"), gated=True),
    Series("repro_kernel_batch_refs_total", "counter",
           "Memory references simulated by access_trace batches",
           ("cache", "path"), gated=True),
    Series("repro_trace_store_hits_total", "counter",
           "Traces served from the store, by tier", ("tier",), gated=True),
    Series("repro_trace_store_misses_total", "counter",
           "Traces regenerated because the store could not serve them",
           gated=True),
    Series("repro_trace_store_regen_seconds", "histogram",
           "Wall time spent regenerating a trace on a store miss", gated=True),
    Series("repro_trace_store_quarantined_total", "counter",
           "Corrupt trace blobs quarantined by the integrity check", gated=True),
    Series("repro_engine_jobs_total", "counter",
           "Sweep jobs finished, by final status", ("status",), gated=True),
    Series("repro_engine_job_retries_total", "counter",
           "Sweep job attempts that were retried after a failure", gated=True),
    # Serve layer.
    Series("repro_serve_batch_size", "histogram",
           "Jobs per dispatched micro-batch", buckets=SIZE_BUCKETS),
    Series("repro_serve_window_occupancy", "histogram",
           "Fraction of max_batch filled when the gather window closed"),
    Series("repro_serve_batches_total", "counter",
           "Micro-batches dispatched, by shard", ("shard",)),
    Series("repro_serve_shard_restarts_total", "counter",
           "Shard worker processes restarted after a crash or timeout",
           ("shard",)),
    Series("repro_serve_fallback_batches_total", "counter",
           "Batches degraded to in-process execution after shard restarts",
           ("shard",)),
    Series("repro_serve_queue_depth", "gauge",
           "Batches in flight per shard worker", ("shard",)),
    # Result cache.
    Series("repro_resultcache_hits_total", "counter",
           "Result-cache lookups served from a cache tier", ("tier",)),
    Series("repro_resultcache_misses_total", "counter",
           "Result-cache lookups that fell through to live execution"),
    Series("repro_resultcache_stores_total", "counter",
           "Snapshots written into the result cache"),
    Series("repro_resultcache_entries", "gauge",
           "Entries currently held by the in-process result-cache LRU"),
    Series("repro_resultcache_evictions_total", "counter",
           "Entries evicted from the in-process result-cache LRU"),
    Series("repro_resultcache_quarantined_total", "counter",
           "Corrupt result-cache disk entries quarantined"),
    Series("repro_resultcache_invalidations_total", "counter",
           "Stale result-cache fingerprint directories pruned"),
    Series("repro_resultcache_singleflight_total", "counter",
           "Requests that shared an in-flight identical execution"),
    # Admission control.
    Series("repro_admission_shed_total", "counter",
           "Requests shed by admission control, by reason", ("reason",)),
    Series("repro_admission_wait_seconds", "histogram",
           "Seconds requests waited in the fair admission queue"),
    # Gateway.
    Series("repro_gateway_requests_total", "counter",
           "HTTP requests handled by the gateway, by route and status",
           ("route", "code")),
    Series("repro_gateway_request_seconds", "histogram",
           "Gateway HTTP request wall time", ("route",)),
    Series("repro_gateway_streamed_results_total", "counter",
           "Partial sweep results streamed to NDJSON clients"),
    Series("repro_gateway_backend_errors_total", "counter",
           "Gateway-to-backend round trips that failed, by kind", ("kind",)),
)

#: Every series the repo records, by name.
CATALOGUE: dict[str, Series] = {row.name: row for row in _ROWS}


def family(name: str) -> Counter | Gauge | Histogram:
    """The default registry's family for catalogue series ``name``.

    Resolved on every call (tests swap the registry) and created on
    first use from the row's kind, help text and buckets.
    """
    row = CATALOGUE.get(name)
    if row is None:
        raise MetricError(f"metric {name!r} is not in the catalogue")
    registry = default_registry()
    if row.kind == "counter":
        return registry.counter(name, row.help)
    if row.kind == "gauge":
        return registry.gauge(name, row.help)
    return registry.histogram(name, row.help, row.buckets)


def record(name: str, value: float = 1.0, **labels: Any) -> None:
    """Count, set or observe ``value`` on catalogue series ``name``.

    Raises :class:`MetricError` for an undeclared name or a label set
    that differs from the row's; a gated row records nothing unless
    the tier is ``full``.
    """
    row = CATALOGUE.get(name)
    if row is None or labels.keys() != row.keys:
        raise MetricError(
            f"metric {name!r} recorded with labels {sorted(labels)}; the "
            f"catalogue declares "
            f"{list(row.labels) if row is not None else 'no such series'}"
        )
    if row.gated and not events.metrics_enabled():
        return
    # A lock-free read once the family exists; family() creates it.
    metric = default_registry().get(name)
    getattr(metric or family(name), row.update)(value, **labels)


def kernel_clock() -> float:
    """Monotonic timestamp for a kernel batch, or ``0.0`` while off.

    ``Cache.access_trace`` brackets each batch with ``kernel_clock()``
    … ``observe_kernel(...)``; a zero start tells ``observe_kernel`` to
    do nothing, so the off tier costs one function call and one
    comparison per *batch* (never per reference).
    """
    if not events.enabled():
        return 0.0
    return time.monotonic()


def observe_kernel(
    cache_name: str, refs: int, start: float, path: str = "stdlib"
) -> None:
    """Record one ``Cache.access_trace`` batch (paired with kernel_clock).

    ``path`` names the kernel flavour that ran (``Cache.last_kernel``:
    "native" or "stdlib") so a perf investigation can tell
    them apart per batch.
    """
    if start == 0.0 or not events.enabled():
        return
    seconds = time.monotonic() - start
    events.emit("kernel.batch", cache=cache_name, refs=refs,
                dur_s=round(seconds, 6), path=path)
    record("repro_kernel_batch_seconds", seconds, cache=cache_name, path=path)
    record("repro_kernel_batch_refs_total", refs, cache=cache_name, path=path)


def job_event(state: str, key: str, *, benchmark: str = "",
              attempt: int = 0, **extra: object) -> None:
    """One engine job lifecycle transition (queued/running/retried/done/failed)."""
    if not events.enabled():
        return
    events.emit(f"job.{state}", key=key, benchmark=benchmark,
                attempt=attempt, **extra)
    if state in ("done", "failed"):
        record("repro_engine_jobs_total", status=state)
    elif state == "retried":
        record("repro_engine_job_retries_total")


# ----------------------------------------------------------------------
# Request-path stage attribution.  The histogram is always on — stages
# only exist inside serve/cluster processes, which are instrumented by
# definition — while the span events follow the REPRO_OBS tier and the
# context's sampling verdict.
# ----------------------------------------------------------------------
#: The stage taxonomy ``bcache-trace --stage-summary`` reports over.
STAGES = (
    "gateway",        # whole HTTP request at the gateway
    "gateway_parse",  # header/body parse + routing
    "serve_request",  # whole request inside the serve process
    "admission",      # rate-limit check + fair-queue wait
    "resultcache",    # memory-tier result-cache probe
    "singleflight",   # wait on the (possibly shared) execution
    "batch_window",   # gather-window wait inside the micro-batcher
    "shard",          # shard queue + worker round trip
    "kernel",         # execute_job inside the shard worker
    "serialize",      # response encode + socket write
    "cluster_node",   # one dispatched batch: node round trip
)


@contextlib.contextmanager
def stage_span(
    stage: str, *, trace: TraceContext | None = None, **attrs: Any
) -> Iterator[TraceContext | None]:
    """Time one pipeline stage: histogram always, span event when traced.

    Yields the child :class:`TraceContext` (or ``None`` when untraced /
    unsampled / tier off) so callers can forward it downstream.
    """
    start = time.monotonic()
    try:
        with events.span(f"stage.{stage}", trace=trace, stage=stage,
                         **attrs) as child:
            yield child
    finally:
        record("repro_stage_seconds", time.monotonic() - start, stage=stage)


def stage_event(
    stage: str,
    seconds: float,
    *,
    trace: TraceContext | None = None,
    **attrs: Any,
) -> None:
    """Record a stage measured retroactively (e.g. a batch-window wait).

    The emitted record's wall time is *now*, so readers recover the
    stage's start as ``t - dur_s`` — identical to a live span.
    """
    if trace is not None and trace.sampled and events.enabled():
        events.emit_raw(stage_record_for(
            stage, trace.child(f"stage.{stage}"), seconds, **attrs
        ))
        return
    record("repro_stage_seconds", seconds, stage=stage)
    if trace is None:
        events.emit(f"stage.{stage}", stage=stage,
                    dur_s=round(seconds, 6), ok=True, **attrs)


def stage_record_for(
    stage: str, ctx: TraceContext, seconds: float, **attrs: Any
) -> dict[str, Any]:
    """Observe ``stage`` and return its span record, whose identity is ``ctx``.

    Shard workers pass ``trace.child("stage.kernel")`` and ship the
    record (their own ``t``/``mono``/``pid``) back with the batch for
    the parent's :func:`repro.obs.events.emit_raw`; the observation
    rides ``drain_deltas``.  The micro-batcher derives the ``shard``
    context before dispatch (the kernel span's parent) and builds the
    shard record here once the round trip lands.
    """
    record("repro_stage_seconds", seconds, stage=stage)
    return {
        "name": f"stage.{stage}",
        "t": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "pid": os.getpid(),
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_id": ctx.parent_id,
        "stage": stage,
        "dur_s": round(seconds, 6),
        "ok": True,
        **attrs,
    }
