"""One workload's outcome, and how it is printed."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from bench.catalog import (
    END_TO_END,
    OFFLINE_LAYER,
    OFFLINE_WORKLOADS,
    PER_LAYER,
    SERVE_LAYER,
    UNITS,
)


@dataclass
class Result:
    """What one workload measured and whether its outputs were right.

    ``failures`` lists the correctness gates that failed; any entry
    makes the run incorrect.  ``notes`` are extra lines for people
    (digests, lag, kernel flavours) that are not metrics.
    """

    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    span_logs: list[Path] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def complete_metrics(result: Result, traced: bool) -> dict[str, float]:
    """Every metric of the run's kind, in catalogue order.

    A traced run of an offline workload cannot measure the serve
    counters (and the other way round); those read 0.  Any other
    missing name is a harness bug and raises.
    """
    if not traced:
        expected = [metric.name for metric in END_TO_END]
        absent: tuple[str, ...] = ()
    else:
        expected = [metric.name for metric in PER_LAYER]
        other = SERVE_LAYER if result.workload in OFFLINE_WORKLOADS else OFFLINE_LAYER
        absent = tuple(metric.name for metric in other)
    metrics = dict(result.metrics)
    for name in absent:
        metrics.setdefault(name, 0)
    missing = [name for name in expected if name not in metrics]
    extra = [name for name in metrics if name not in expected]
    if missing or extra:
        raise ValueError(f"{result.workload}: metrics missing {missing}, unexpected {extra}")
    return {name: metrics[name] for name in expected}


def metric_lines(workload: str, metrics: dict[str, float]) -> list[str]:
    """``workload metric value unit``, one line per metric."""
    return [f"{workload} {name} {value!r} {UNITS[name]}" for name, value in metrics.items()]


def summary(results: list[Result], traced: bool) -> dict[str, Any]:
    """The machine-readable last line of a run.

    With one workload the metrics are keyed by name; with several, by
    ``workload/name``.  An incorrect run reports no metrics.
    """
    correct = all(result.correct for result in results)
    metrics: dict[str, dict[str, Any]] = {}
    if correct:
        for result in results:
            prefix = "" if len(results) == 1 else f"{result.workload}/"
            for name, value in complete_metrics(result, traced).items():
                metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    return {
        "correct": correct,
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }
