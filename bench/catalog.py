"""Every workload and metric name the benchmark reports, in one place.

``BENCHMARK.json`` at the repository root is :func:`benchmark_spec`
written out; ``bench/tests`` checks the two agree, so a metric cannot
be reported under a name ``BENCHMARK.json`` does not declare.

Every run reports *every* metric of its kind: an untraced run the
end-to-end metrics, a traced run the per-layer ones.  A stage or
counter that a workload never exercises reads 0 there (the serve
counters on an offline workload, for example).  Per-layer times are
therefore given as shares of traced time (``%``) rather than seconds,
so a stage absent from a workload reads as a 0 % share, not as a
duration.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    """One reported number: its name, unit, direction and bound.

    ``bound`` is the share of the parent's median by which an
    end-to-end metric may worsen before a change counts as a
    regression; per-layer metrics have none.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict[str, object]:
        entry: dict[str, object] = {
            "name": self.name, "unit": self.unit, "better": self.better,
        }
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


#: name -> why the workload exists (one line each).
WORKLOADS = {
    "repro-l1": "every L1 experiment except fig8/fig9 at an eighth of smoke "
    "scale: batch kernels plus the per-access 3c and sensitivity replays",
    "repro-system": "fig8 + fig9 at an eighth of smoke scale: per-access "
    "hierarchy and OoO CPU model with write-backs; fig9 repeats fig8",
    "serve-cold": "bcache-serve, 2 shards, every request a distinct "
    "result-cache miss: kernel, shard pool, batcher and cache writes",
    "gateway-hot": "bcache-gateway over the same server with a warm "
    "result cache: HTTP parse, admission, cache reads, serialize",
}

#: Offline workloads run experiments; serve workloads send requests.
OFFLINE_WORKLOADS = ("repro-l1", "repro-system")
SERVE_WORKLOADS = ("serve-cold", "gateway-hot")

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Experiment ids of each offline workload (``repro.cli.EXPERIMENTS``).
L1_EXPERIMENTS = (
    "fig3", "fig4", "fig5", "fig12", "tab1", "tab2", "tab3", "tab56",
    "tab7", "hac", "prior-art", "replacement", "latency", "3c",
    "sensitivity", "addressing", "drowsy",
)
SYSTEM_EXPERIMENTS = ("fig8", "fig9")

#: Offline stages: spans the harness records around public entry points.
OFFLINE_STAGES = (
    "experiment", "trace_gen", "trace_load", "sweep", "kernel",
    "three_c", "system_model", "energy", "render",
)
#: Serve stages: the spans ``REPRO_OBS=full`` records on the request
#: path (``repro.obs.instrument.STAGES`` without the cluster hop).
SERVE_STAGES = (
    "gateway", "gateway_parse", "serve_request", "admission",
    "resultcache", "singleflight", "batch_window", "shard", "kernel",
    "serialize",
)
STAGES = OFFLINE_STAGES + tuple(s for s in SERVE_STAGES if s not in OFFLINE_STAGES)

#: Cache classes whose batch kernel rate is reported per class.
KERNEL_CLASSES = (
    "DirectMappedCache", "SetAssociativeCache", "FullyAssociativeCache",
    "BCache", "VictimBufferCache", "ColumnAssociativeCache",
    "SkewedAssociativeCache", "HighlyAssociativeCache",
    "GroupAssociativeCache", "PageColoringCache",
    "PartialAddressMatchingCache", "PredictiveSequentialCache",
    "WritePolicyCache",
)


def _common_layer() -> tuple[Metric, ...]:
    metrics = [
        Metric("trace.ops", "count", "higher"),
        Metric("trace.op_ms", "ms", "lower"),
        Metric("trace.complete_ratio", "ratio", "higher"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
    ]
    for stage in STAGES:
        metrics.append(Metric(f"stage.{stage}.calls", "count", "lower"))
        metrics.append(Metric(f"stage.{stage}.self_pct", "%", "lower"))
    return tuple(metrics)


def _offline_layer() -> tuple[Metric, ...]:
    metrics = [
        Metric("stage.sweep.jobs", "count", "higher"),
        Metric("stage.kernel.refs", "count", "higher"),
        Metric("stage.kernel.per_access_refs", "count", "lower"),
        Metric("stage.system_model.refs_per_s", "1/s", "higher"),
        Metric("trace_store.generated", "count", "lower"),
    ]
    metrics += [
        Metric(f"stage.kernel.{cls}.refs_per_s", "1/s", "higher")
        for cls in KERNEL_CLASSES
    ]
    metrics += [
        Metric(f"experiment.{name}.pct", "%", "lower")
        for name in L1_EXPERIMENTS + SYSTEM_EXPERIMENTS
    ]
    return tuple(metrics)


def _serve_layer() -> tuple[Metric, ...]:
    return (
        Metric("serve.batches", "count", "lower"),
        Metric("serve.mean_batch_size", "jobs", "higher"),
        Metric("serve.coalesced", "count", "higher"),
        Metric("serve.singleflight_waits", "count", "higher"),
        Metric("serve.resultcache.hits", "count", "higher"),
        Metric("serve.resultcache.misses", "count", "lower"),
        Metric("serve.resultcache.stores", "count", "lower"),
        Metric("serve.resultcache.hit_ratio", "ratio", "higher"),
        Metric("serve.shard_restarts", "count", "lower"),
        Metric("loadgen.shed_retries", "count", "lower"),
        Metric("loadgen.rate_limited_retries", "count", "lower"),
        Metric("loadgen.late_ratio", "ratio", "lower"),
    )


#: Per-layer metrics every traced run measures, and those only one
#: family of workloads can measure (the other family reports 0).
COMMON_LAYER = _common_layer()
OFFLINE_LAYER = _offline_layer()
SERVE_LAYER = _serve_layer()
PER_LAYER = COMMON_LAYER + OFFLINE_LAYER + SERVE_LAYER

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def benchmark_spec() -> dict[str, object]:
    """The ``BENCHMARK.json`` this package implements."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [metric.spec() for metric in END_TO_END],
        "per_layer": [metric.spec() for metric in PER_LAYER],
    }
