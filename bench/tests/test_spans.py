"""Self times from ``stage_summary`` on a known span tree, and the
offline span recorder end to end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.traceview import load_spans

from bench import offline
from bench.child import bench_scale
from bench.spans import SpanRecorder, offline_metrics, stage_metrics

ROOT = Path(__file__).resolve().parents[2]


def _record(stage: str, span: str, parent: str | None, end: float, dur: float,
            **attrs: object) -> dict[str, object]:
    return {"name": f"stage.{stage}", "stage": stage, "trace_id": "t1", "span_id": span,
            "parent_id": parent, "t": end, "dur_s": dur, "pid": 1, "ok": True, **attrs}


def test_self_times_on_a_known_tree(tmp_path: Path) -> None:
    # experiment [0, 10] > sweep [1, 5] > kernel [2, 3]; experiment > kernel [6, 9]
    records = [
        _record("kernel", "k1", "s1", 3.0, 1.0),
        _record("sweep", "s1", "e1", 5.0, 4.0),
        _record("kernel", "k2", "e1", 9.0, 3.0),
        _record("experiment", "e1", None, 10.0, 10.0, entry="EXPERIMENTS",
                experiment="fig4"),
    ]
    log = tmp_path / "spans.jsonl"
    log.write_text("".join(json.dumps(record) + "\n" for record in records))
    metrics = stage_metrics(load_spans([log]))
    assert metrics["trace.ops"] == 1 and metrics["trace.complete_ratio"] == 1.0
    assert metrics["trace.op_ms"] == pytest.approx(10_000.0)
    assert metrics["stage.experiment.self_pct"] == pytest.approx(30.0)  # 10 - 4 - 3
    assert metrics["stage.sweep.self_pct"] == pytest.approx(30.0)  # 4 - 1
    assert metrics["stage.kernel.self_pct"] == pytest.approx(40.0)  # 1 + 3
    assert metrics["stage.kernel.calls"] == 2 and metrics["stage.render.calls"] == 0
    assert offline_metrics(load_spans([log]))["experiment.fig4.pct"] == pytest.approx(100.0)


def test_recorder_nests_spans_under_the_experiment(tmp_path: Path) -> None:
    recorder = SpanRecorder()
    with recorder.experiment("fig4"):
        with recorder.span("sweep", "execute_job"):
            with recorder.span("kernel", "Cache.access_trace", cls="X", refs=10, flavour="s"):
                pass
        with pytest.raises(KeyError):
            with recorder.span("trace_load", "TraceStore.addresses"):
                raise KeyError("missing")
    log = tmp_path / "spans.jsonl"
    recorder.write(log)
    traces = load_spans([log])
    (trace,) = traces.values()
    assert trace.is_complete() and len(trace.spans) == 4
    failed = [span for span in trace.spans.values() if not span.ok]
    assert [span.stage for span in failed] == ["trace_load"]
    metrics = offline_metrics(traces)
    assert metrics["stage.sweep.jobs"] == 1 and metrics["stage.kernel.refs"] == 10


def test_traced_child_pass(tmp_path: Path) -> None:
    """A real traced pass: spans load, the tree is complete, every layer
    it touches is counted and the table matches the golden digest."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               REPRO_TRACE_STORE=str(tmp_path / "traces"), REPRO_OBS="off",
               XDG_CACHE_HOME=str(tmp_path / "xdg"))
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", "--experiments", "fig3,tab1",
         "--seed", "2006", "--spans", str(spans)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    golden = offline.load_golden()["sha256"]
    for name in ("fig3", "tab1"):
        assert record["experiments"][name]["sha256"] == golden[name]
    # Nothing was set up, so fig3 had to generate its trace.
    assert record["generated"] == 1
    traces = load_spans([spans])
    metrics = stage_metrics(traces)
    metrics.update(offline_metrics(traces))
    assert metrics["trace.ops"] == 2 and metrics["trace.complete_ratio"] == 1.0
    for stage in ("experiment", "trace_load", "sweep", "kernel", "render"):
        assert metrics[f"stage.{stage}.calls"] > 0, stage
    assert metrics["stage.kernel.refs"] == metrics["stage.sweep.jobs"] * bench_scale(0).data_n
