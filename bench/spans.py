"""Stage spans: recorded around each layer's public entry points, and
turned into per-layer metrics.

Offline workloads have no spans of their own, so the traced child
interpreter installs a :class:`SpanRecorder` before it runs any
experiment.  The recorder wraps the public entry point of every layer
(the table below) from outside: a class method is replaced on its
class; a module-level function is replaced in every ``repro.*`` module
that holds it, however that module imported it.

=================  ==============================================  ============
layer              wrapped entry points                            stage
=================  ==============================================  ============
experiments        ``repro.cli.EXPERIMENTS[id]``                   experiment
workloads          ``BenchmarkProfile.combined_trace``             trace_gen
engine.trace_store ``TraceStore.addresses/accesses/ensure``        trace_load
engine.runner      ``run_sweep``, ``execute_job``                  sweep
caches             ``Cache.access_trace``, ``make_cache``          kernel
stats              ``classify_misses``                             three_c
cpu + hierarchy    ``OoOProcessorModel.run``                       system_model
energy             ``SystemEnergyModel.report``,                   energy
                   ``access_energy_for``
reporting          ``format_table``                                render
=================  ==============================================  ============

Spans stay in memory and are written once, at exit, as obs event
records (``name=stage.<s>``, ``trace_id``, ``span_id``, ``parent_id``,
``t``, ``dur_s``), one trace per experiment call.  The served
workloads' spans come from the program itself (``REPRO_OBS=full``) in
the same shape, so both go through :func:`repro.obs.traceview.load_spans`
and :func:`~repro.obs.traceview.stage_summary`, and ``bcache-trace
--export`` renders either.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.traceview import Trace, stage_summary

from bench.catalog import KERNEL_CLASSES, L1_EXPERIMENTS, STAGES, SYSTEM_EXPERIMENTS

#: ``entry`` attribute of the spans the offline extras are counted from.
EXECUTE_JOB = "execute_job"
ACCESS_TRACE = "Cache.access_trace"
SYSTEM_RUN = "OoOProcessorModel.run"

Note = Callable[[dict[str, Any], tuple[Any, ...], dict[str, Any], Any], None]


class SpanRecorder:
    """In-memory spans around the public entry points of every layer."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.per_access_refs = 0
        self._stack: list[str] = []
        self._trace_id = ""
        self._ids = itertools.count(1)
        self._batch_refs: dict[int, int] = {}
        self._finalizers: list[weakref.finalize] = []

    @contextlib.contextmanager
    def span(self, stage: str, entry: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the body as one span; the yielded dict becomes its attrs."""
        span_id = f"{next(self._ids):016x}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            yield attrs
            ok = True
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self.records.append({
                "name": f"stage.{stage}", "stage": stage, "entry": entry,
                "trace_id": self._trace_id, "span_id": span_id,
                "parent_id": parent, "t": time.time(), "dur_s": dur,
                "pid": os.getpid(), "ok": ok, **attrs,
            })

    def experiment(self, name: str) -> contextlib.AbstractContextManager[dict[str, Any]]:
        """The root span of one experiment call (its own trace)."""
        self._trace_id = f"{os.getpid()}-{name}"
        return self.span("experiment", "EXPERIMENTS", experiment=name)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, stage: str, entry: str, fn: Callable[..., Any],
              note: Note | None = None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(stage, entry) as attrs:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(attrs, args, kwargs, result)
                return result
        return traced

    def _patch_method(self, cls: type, name: str, stage: str,
                      note: Note | None = None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(stage, f"{cls.__name__}.{name}", original, note))

    def _patch_function(self, original: Callable[..., Any], stage: str,
                        note: Note | None = None) -> None:
        traced = self._wrap(stage, original.__name__, original, note)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer's entry points (call once, before any work)."""
        from repro.caches import factory
        from repro.caches.base import Cache
        from repro.cpu.timing import OoOProcessorModel
        from repro.energy import model as energy
        from repro.engine import runner
        from repro.engine.trace_store import TraceStore
        from repro.experiments import reporting
        from repro.stats import three_c
        from repro.workloads.spec2k import BenchmarkProfile

        for name in ("addresses", "accesses", "ensure"):
            self._patch_method(TraceStore, name, "trace_load")
        self._patch_method(Cache, "access_trace", "kernel", self._note_batch)
        self._patch_function(factory.make_cache, "kernel", self._note_cache)
        self._patch_function(runner.run_sweep, "sweep")
        self._patch_function(runner.execute_job, "sweep")
        self._patch_function(three_c.classify_misses, "three_c")
        self._patch_method(OoOProcessorModel, "run", "system_model", _note_refs)
        self._patch_method(energy.SystemEnergyModel, "report", "energy")
        self._patch_function(energy.access_energy_for, "energy")
        self._patch_function(reporting.format_table, "render")
        # combined_trace returns a generator: materialise it inside the
        # span, or the span would time only the generator's creation.
        generate = BenchmarkProfile.__dict__["combined_trace"]
        BenchmarkProfile.combined_trace = self._wrap(  # type: ignore[method-assign]
            "trace_gen", "BenchmarkProfile.combined_trace",
            functools.wraps(generate)(lambda *a, **k: list(generate(*a, **k))),
        )

    # -- per-access accounting -----------------------------------------
    def _note_batch(self, attrs: dict[str, Any], args: tuple[Any, ...],
                    kwargs: dict[str, Any], result: Any) -> None:
        cache = args[0]
        refs = len(args[1] if len(args) > 1 else kwargs["addresses"])
        attrs.update(cls=type(cache).__name__, refs=refs, flavour=cache.last_kernel)
        self._batch_refs[id(cache)] = self._batch_refs.get(id(cache), 0) + refs

    def _note_cache(self, attrs: dict[str, Any], args: tuple[Any, ...],
                    kwargs: dict[str, Any], cache: Any) -> None:
        # When the cache dies, whatever it counted beyond its batch
        # references went through the per-access path.
        self._finalizers.append(
            weakref.finalize(cache, self._settle, id(cache), cache.stats)
        )

    def _settle(self, key: int, stats: Any) -> None:
        self.per_access_refs += max(0, stats.accesses - self._batch_refs.pop(key, 0))

    def settle(self) -> None:
        """Account every cache still alive (call after the last span)."""
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _note_refs(attrs: dict[str, Any], args: tuple[Any, ...],
               kwargs: dict[str, Any], result: Any) -> None:
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    attrs["refs"] = len(trace) if hasattr(trace, "__len__") else 0


# ----------------------------------------------------------------------
# Per-layer metrics (the harness side)
# ----------------------------------------------------------------------
def stage_metrics(traces: dict[str, Trace]) -> dict[str, float]:
    """Count and self-time share of every stage, plus trace totals.

    A stage's self time is its spans' durations minus their children's
    (:func:`repro.obs.traceview.stage_summary`); its share is taken of
    the summed duration of all traces, i.e. of all operations.
    """
    if not traces:
        raise ValueError("no traced operations")
    table = stage_summary(traces)
    total = sum(trace.duration for trace in traces.values())
    complete = sum(1 for trace in traces.values() if trace.is_complete())
    metrics: dict[str, float] = {
        "trace.ops": len(traces),
        "trace.op_ms": 1000.0 * total / len(traces),
        "trace.complete_ratio": complete / len(traces),
    }
    for stage in STAGES:
        stats = table.get(stage)
        metrics[f"stage.{stage}.calls"] = stats.count if stats else 0
        metrics[f"stage.{stage}.self_pct"] = (
            100.0 * stats.self_total / total if stats and total else 0.0
        )
    return metrics


def offline_metrics(traces: dict[str, Trace]) -> dict[str, float]:
    """The offline extras: jobs, kernel references and rates, experiments."""
    spans = [span for trace in traces.values() for span in trace.spans.values()]
    by_entry: dict[str, list[Any]] = {}
    for span in spans:
        by_entry.setdefault(str(span.attrs.get("entry")), []).append(span)
    batches = by_entry.get(ACCESS_TRACE, [])
    system = by_entry.get(SYSTEM_RUN, [])
    metrics: dict[str, float] = {
        "stage.sweep.jobs": len(by_entry.get(EXECUTE_JOB, [])),
        "stage.kernel.refs": sum(span.attrs["refs"] for span in batches),
        "stage.system_model.refs_per_s": _rate(system),
    }
    for cls in KERNEL_CLASSES:
        metrics[f"stage.kernel.{cls}.refs_per_s"] = _rate(
            [span for span in batches if span.attrs["cls"] == cls]
        )
    total = sum(trace.duration for trace in traces.values())
    per_experiment: dict[str, float] = {}
    for span in by_entry.get("EXPERIMENTS", []):
        name = span.attrs["experiment"]
        per_experiment[name] = per_experiment.get(name, 0.0) + span.dur
    for name in L1_EXPERIMENTS + SYSTEM_EXPERIMENTS:
        metrics[f"experiment.{name}.pct"] = 100.0 * per_experiment.get(name, 0.0) / total
    return metrics


def kernel_flavours(traces: dict[str, Trace]) -> dict[str, str]:
    """Cache class -> kernel flavour its last batch ran on."""
    flavours: dict[str, str] = {}
    for trace in traces.values():
        for span in trace.spans.values():
            if span.attrs.get("entry") == ACCESS_TRACE:
                flavours[span.attrs["cls"]] = span.attrs["flavour"]
    return flavours


def _rate(spans: list[Any]) -> float:
    """References per second over the spans' summed duration."""
    seconds = sum(span.dur for span in spans)
    return sum(span.attrs["refs"] for span in spans) / seconds if seconds else 0.0
