"""repro.obs — unified telemetry: metrics, spans, exposition, bcache-top.

A dependency-free observability layer shared by every subsystem:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram in a
  :class:`MetricsRegistry`, with cross-process delta forwarding;
* :mod:`repro.obs.exposition` — Prometheus text format writer/parser;
* :mod:`repro.obs.events` — ``span``/``emit`` tracing onto a crash-safe
  JSONL event log, tiered by ``REPRO_OBS=off|events|full``;
* :mod:`repro.obs.instrument` — the metric catalogue (one row per
  series) and ``record``, its one writer, plus the stage, kernel and
  job-event helpers;
* :mod:`repro.obs.tracectx` — deterministic distributed trace contexts
  (W3C ``traceparent``, head sampling keyed by ``hash(trace_id)``);
* :mod:`repro.obs.traceview` — the ``bcache-trace`` waterfall analyzer;
* :mod:`repro.obs.top` — the live ``bcache-top`` sweep monitor.

This package is a leaf: it must not import ``repro.caches``,
``repro.engine`` or ``repro.serve`` (they all import it).
"""

from repro.obs.events import (
    EventLog,
    configure,
    emit,
    emit_raw,
    enabled,
    log_to,
    metrics_enabled,
    mode,
    read_events,
    reset,
    span,
    tail_events,
)
from repro.obs.tracectx import (
    TraceContext,
    mint_trace_id,
    sample_rate,
    sampled_for,
)
from repro.obs.tracectx import current as current_trace
from repro.obs.tracectx import use as use_trace
from repro.obs.exposition import CONTENT_TYPE, parse_text, render
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TraceContext",
    "configure",
    "current_trace",
    "default_registry",
    "emit",
    "emit_raw",
    "enabled",
    "log_to",
    "metrics_enabled",
    "mint_trace_id",
    "mode",
    "parse_text",
    "read_events",
    "render",
    "reset",
    "sample_rate",
    "sampled_for",
    "set_default_registry",
    "span",
    "tail_events",
    "use_trace",
]
