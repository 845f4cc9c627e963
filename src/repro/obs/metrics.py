"""Dependency-free metrics primitives: Counter, Gauge, Histogram.

A :class:`MetricsRegistry` holds named metric families; every family
supports label sets (``counter.inc(1, shard="0")``), so one family
renders as many Prometheus series.  Names are validated against
``^repro_[a-z0-9_]+$`` at registration time — a typo'd metric name
fails fast instead of silently forking a new series.  The repo's own
series are declared in :data:`repro.obs.instrument.CATALOGUE`.

Histograms use **fixed log-scale buckets** (geometric boundaries, see
:func:`log_buckets`): cache-kernel timings and batch sizes both span
orders of magnitude, where linear buckets waste resolution.  The
percentile estimate (:meth:`Histogram.approx_percentile`) reuses the
linear-interpolation rank math of :func:`repro.stats.latency.rank_position`
— the same estimator the load generator reports — applied to the
cumulative bucket counts.

Cross-process flow: worker processes accumulate into their own
process-wide registry, :meth:`MetricsRegistry.drain_deltas` snapshots
and resets it, and the parent folds the deltas into its registry via
:meth:`MetricsRegistry.merge_deltas` — this is how shard-worker
counters (trace-store hits, engine jobs) surface in the server's
``/metrics`` endpoint.

All mutation goes through one lock per registry, so executor threads
(the serve layer's ``shard-io`` pool) can record safely.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterator, Mapping, TypeVar

from repro.stats.latency import rank_position

_M = TypeVar("_M", bound="_Metric")

#: Metric names must match this (enforced when a family is created).
METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")

#: Canonical label key for one series: sorted ``(key, value)`` pairs.
LabelKey = tuple[tuple[str, str], ...]


class MetricError(ValueError):
    """Bad metric name, mismatched kind, or malformed delta payload."""


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` geometric bucket upper bounds: start, start*factor, ...

    Log-scale boundaries cover quantities spanning orders of magnitude
    (kernel seconds, batch sizes) with constant *relative* resolution.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise MetricError(
            f"log_buckets needs start > 0, factor > 1, count >= 1; "
            f"got ({start}, {factor}, {count})"
        )
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Default timing buckets: 10 µs … ~167 s in ×4 steps (12 finite + +Inf).
TIME_BUCKETS = log_buckets(1e-5, 4.0, 12)

#: Default size/count buckets: 1 … 2048 in ×2 steps.
SIZE_BUCKETS = log_buckets(1.0, 2.0, 12)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared shape of one metric family (name, help, label sets)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        if not METRIC_NAME_RE.match(name):
            raise MetricError(
                f"metric name {name!r} must match {METRIC_NAME_RE.pattern}"
            )
        self.name = name
        self.help = help
        self._lock = lock

    def labelsets(self) -> list[LabelKey]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set (e.g. restarts over all shards)."""
        with self._lock:
            return sum(self._values.values())

    def labelsets(self) -> list[LabelKey]:
        return list(self._values)


class Gauge(_Metric):
    """A value that goes up and down (queue depth, occupancy)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        super().__init__(name, help, lock)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def labelsets(self) -> list[LabelKey]:
        return list(self._values)


class _HistogramSeries:
    """Bucket counts, sum and count for one label set."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, buckets: int) -> None:
        self.bucket_counts = [0] * (buckets + 1)  # final slot = +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``observe(v)`` lands in the first bucket whose upper bound is
    ``>= v`` (Prometheus ``le`` = less-or-equal); values above the last
    finite bound land in the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        buckets: tuple[float, ...] = TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(f"histogram {name}: buckets must ascend: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1

    def series(self, **labels: Any) -> _HistogramSeries | None:
        return self._series.get(_label_key(labels))

    def count(self, **labels: Any) -> int:
        series = self.series(**labels)
        return series.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        series = self.series(**labels)
        return series.sum if series is not None else 0.0

    def approx_percentile(self, q: float, **labels: Any) -> float:
        """Bucket-interpolated percentile estimate.

        Uses the same linear-interpolation rank convention as
        :func:`repro.stats.latency.percentile` (via
        :func:`~repro.stats.latency.rank_position`), but walks the
        cumulative bucket counts instead of a retained sample: the
        fractional rank is located in its bucket and interpolated
        between the bucket's bounds.  Raises ``ValueError`` when the
        series is empty.
        """
        series = self.series(**labels)
        if series is None or series.count == 0:
            raise ValueError(f"histogram {self.name}: no observations")
        lower_rank, upper_rank, weight = rank_position(series.count, q)
        target = lower_rank + weight  # fractional rank in [0, count-1]
        cumulative = 0
        previous_bound = 0.0
        for i, bound in enumerate(self.buckets):
            in_bucket = series.bucket_counts[i]
            if in_bucket and cumulative + in_bucket - 1 >= target:
                # Rank falls in this bucket: interpolate across it.
                position = (target - cumulative + 0.5) / in_bucket
                return previous_bound + (bound - previous_bound) * min(
                    1.0, max(0.0, position)
                )
            cumulative += in_bucket
            previous_bound = bound
        return previous_bound  # rank is in the +Inf bucket: clamp

    def labelsets(self) -> list[LabelKey]:
        return list(self._series)


class MetricsRegistry:
    """Named metric families with get-or-create registration.

    ``registry.counter(name, help)`` returns the existing family when
    it is already registered (so instrumentation sites need no global
    set-up order), and raises :class:`MetricError` when the name is
    taken by a different kind.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    # -- registration --------------------------------------------------
    def _get_or_create(
        self, cls: "type[_M]", name: str, help: str, **kwargs: Any
    ) -> "_M":
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = cls(name, help, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        if buckets is None:
            return self._get_or_create(Histogram, name, help)
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics, key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- cross-process deltas ------------------------------------------
    def drain_deltas(self) -> list[dict[str, Any]]:
        """Snapshot-and-reset counters/histograms for forwarding.

        Worker processes call this after a batch and ship the result to
        the parent (`merge_deltas`); counters and histogram series are
        zeroed so the next drain reports only new activity.  Gauges are
        reported as-is (last-write-wins on merge).
        """
        deltas: list[dict[str, Any]] = []
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    for labels, value in metric._values.items():
                        if value:
                            deltas.append(
                                {"name": metric.name, "kind": "counter",
                                 "help": metric.help, "labels": list(labels),
                                 "value": value}
                            )
                    metric._values.clear()
                elif isinstance(metric, Gauge):
                    for labels, value in metric._values.items():
                        deltas.append(
                            {"name": metric.name, "kind": "gauge",
                             "help": metric.help, "labels": list(labels),
                             "value": value}
                        )
                elif isinstance(metric, Histogram):
                    for labels, series in metric._series.items():
                        if series.count:
                            deltas.append(
                                {"name": metric.name, "kind": "histogram",
                                 "help": metric.help, "labels": list(labels),
                                 "buckets": list(metric.buckets),
                                 "bucket_counts": list(series.bucket_counts),
                                 "sum": series.sum, "count": series.count}
                            )
                    metric._series.clear()
        return deltas

    def merge_deltas(self, deltas: list[dict[str, Any]]) -> None:
        """Fold a worker's :meth:`drain_deltas` payload into this registry."""
        for delta in deltas:
            try:
                name = delta["name"]
                kind = delta["kind"]
                labels = dict(tuple(pair) for pair in delta.get("labels", []))
            except (KeyError, TypeError, ValueError) as exc:
                raise MetricError(f"malformed metric delta: {delta!r}") from exc
            if kind == "counter":
                self.counter(name, delta.get("help", "")).inc(
                    float(delta["value"]), **labels
                )
            elif kind == "gauge":
                self.gauge(name, delta.get("help", "")).set(
                    float(delta["value"]), **labels
                )
            elif kind == "histogram":
                histogram = self.histogram(
                    name, delta.get("help", ""),
                    buckets=tuple(delta["buckets"]),
                )
                key = _label_key(labels)
                with self._lock:
                    series = histogram._series.get(key)
                    if series is None:
                        series = histogram._series[key] = _HistogramSeries(
                            len(histogram.buckets)
                        )
                    counts = delta["bucket_counts"]
                    if len(counts) != len(series.bucket_counts):
                        raise MetricError(
                            f"histogram {name}: delta has {len(counts)} "
                            f"buckets, registry has {len(series.bucket_counts)}"
                        )
                    for i, count in enumerate(counts):
                        series.bucket_counts[i] += count
                    series.sum += float(delta["sum"])
                    series.count += int(delta["count"])
            else:
                raise MetricError(f"unknown metric kind {kind!r}")


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumentation site records to."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry (tests); returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
