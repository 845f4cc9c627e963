"""The ``bcache-bench --check`` gate compares a run with a baseline it
read before writing anything, and never with the run itself."""

from __future__ import annotations

import json

import pytest

from repro.engine import bench

BASELINE = {
    "hot_loop": {"dm": {"speedup": 40.0}},
    "sweep": {"workers": {}},
}


def regressed_report(quick, job_counts, seed=2006):
    """A report whose dm speedup fell to a quarter of the baseline's."""
    return {
        "cpus_usable": 1,
        "hot_loop": {
            "dm": {"scalar_s": 1.0, "batch_s": 0.1, "kernel": "native",
                   "speedup": 10.0, "identical_stats": True},
        },
        "sweep": {"jobs_total": 0, "serial_s": 1.0, "workers": {}},
    }


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run_benchmarks", regressed_report)
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps(BASELINE))
    return path


def test_regression_fails_against_a_separate_output(baseline, tmp_path):
    out = tmp_path / "current.json"
    assert bench.main(["--out", str(out), "--check", str(baseline)]) == 1
    assert json.loads(out.read_text())["hot_loop"]["dm"]["speedup"] == 10.0
    assert json.loads(baseline.read_text()) == BASELINE


def test_same_file_form_no_longer_passes_a_regression(baseline, monkeypatch):
    """``--out X --check X`` used to overwrite X with the run and then
    compare the run with itself, so any regression passed."""
    monkeypatch.chdir(baseline.parent)
    for out in (str(baseline), baseline.name, f"./{baseline.name}"):
        assert bench.main(["--out", out, "--check", str(baseline)]) == 2
    assert bench.main(["--check", baseline.name]) == 2  # --out's default
    assert json.loads(baseline.read_text()) == BASELINE


def test_unreadable_baseline_exits_before_running(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("benchmarks ran without a baseline")

    monkeypatch.setattr(bench, "run_benchmarks", fail)
    out = tmp_path / "current.json"
    missing = tmp_path / "missing.json"
    assert bench.main(["--out", str(out), "--check", str(missing)]) == 2
    assert not out.exists()
