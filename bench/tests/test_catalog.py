"""BENCHMARK.json is the catalogue, and both stay within their limits."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench.catalog import (
    END_TO_END,
    OFFLINE_LAYER,
    PER_LAYER,
    SERVE_LAYER,
    UNITS,
    benchmark_spec,
)
from bench.report import Result, complete_metrics, summary

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue() -> None:
    assert json.loads(SPEC_PATH.read_text()) == benchmark_spec()


def test_every_metric_name_is_well_formed_and_declared() -> None:
    spec = json.loads(SPEC_PATH.read_text())
    declared = [entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    for metric in END_TO_END + PER_LAYER:
        assert re.fullmatch(r"^[A-Za-z0-9_.-]+$", metric.name), metric.name
        assert NAME.match(metric.name), metric.name
        assert metric.name in declared
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")


def test_benchmark_json_limits() -> None:
    spec = json.loads(SPEC_PATH.read_text())
    assert len(SPEC_PATH.read_bytes()) <= 64 * 1024
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(entry for entry in spec["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and ".." not in path
        assert (SPEC_PATH.parent / path).is_dir()
    assert len(spec["command"]) <= 32 and all(len(arg) <= 200 for arg in spec["command"])


def _offline_layer_result() -> Result:
    metrics = {metric.name: 1.0 for metric in PER_LAYER if metric not in SERVE_LAYER}
    return Result("repro-l1", metrics, attempted=17, failed=0)


def test_traced_offline_run_reports_serve_metrics_as_zero() -> None:
    metrics = complete_metrics(_offline_layer_result(), traced=True)
    assert list(metrics) == [metric.name for metric in PER_LAYER]
    assert all(metrics[metric.name] == 0 for metric in SERVE_LAYER)


def test_a_missing_own_metric_is_a_harness_bug() -> None:
    result = _offline_layer_result()
    del result.metrics[OFFLINE_LAYER[0].name]
    with pytest.raises(ValueError, match="missing"):
        complete_metrics(result, traced=True)


def test_summary_shape() -> None:
    metrics = {metric.name: 1.5 for metric in END_TO_END}
    record = summary([Result("serve-cold", metrics, attempted=10, failed=0)], traced=False)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["attempted"] == 10
    assert record["metrics"]["p95_ms"] == {"value": 1.5, "unit": UNITS["p95_ms"]}
    failing = Result("serve-cold", metrics, attempted=10, failed=1)
    assert summary([failing], traced=False)["metrics"] == {}
