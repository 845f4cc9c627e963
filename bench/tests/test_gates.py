"""Every correctness gate passes on good input and fails on a perturbed one."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

import pytest

from repro.engine.runner import SweepJob, execute_job
from repro.engine.trace_store import TraceStore
from repro.experiments import ExperimentScale
from repro.experiments.common import run_system

import bench.__main__ as cli
from bench import loadgen, offline, served
from bench.catalog import END_TO_END
from bench.report import Result

TINY = ExperimentScale(data_n=1000, instr_n=1000, instructions=1000, seed=11)
GOLDEN = {"seed": 2006, "seed_independent": ["tab1"],
          "sha256": {"tab1": "a" * 64, "fig4": "b" * 64}}


def _pass(**digests: str) -> offline.Pass:
    return 0.0, 1.0, {"generated": 0, "maxrss_kb": 1024, "experiments": {
        name: {"sha256": digest, "start": 0.1, "end": 0.2} for name, digest in digests.items()}}


# -- table digests -----------------------------------------------------
def test_digests_matching_the_golden_file_pass() -> None:
    passes = [_pass(tab1="a" * 64, fig4="b" * 64)] * 2
    assert offline.check_passes(passes, 2006, GOLDEN) == []


def test_a_perturbed_digest_fails_at_the_golden_seed() -> None:
    failures = offline.check_passes([_pass(tab1="a" * 64, fig4="c" * 64)], 2006, GOLDEN)
    assert len(failures) == 1 and "fig4" in failures[0]


def test_other_seeds_check_only_seed_independent_tables() -> None:
    assert offline.check_passes([_pass(tab1="a" * 64, fig4="c" * 64)], 7, GOLDEN) == []
    failures = offline.check_passes([_pass(tab1="d" * 64, fig4="c" * 64)], 7, GOLDEN)
    assert len(failures) == 1 and "tab1" in failures[0]


def test_passes_must_render_identical_tables() -> None:
    failures = offline.check_passes([_pass(fig4="c" * 64), _pass(fig4="e" * 64)], 7, GOLDEN)
    assert failures == ["fig4: passes rendered different tables"]


def test_a_raised_experiment_or_a_generated_trace_fails() -> None:
    broken = _pass(fig4="c" * 64)
    broken[2]["experiments"]["fig4"] = {"error": "Traceback...\nValueError: boom\n",
                                        "seconds": 0.1}
    broken[2]["generated"] = 2
    failures = offline.check_passes([broken], 7, GOLDEN)
    assert any("fig4 raised: ValueError: boom" in f for f in failures)
    assert any("generated 2" in f for f in failures)


def test_the_committed_golden_file_covers_every_experiment() -> None:
    golden = offline.load_golden()
    assert golden["seed"] == 2006
    assert set(golden["sha256"]) == set(offline.L1_EXPERIMENTS + offline.SYSTEM_EXPERIMENTS)
    assert set(golden["seed_independent"]) <= set(golden["sha256"])


def test_a_digest_mismatch_exits_non_zero_without_metrics(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def perturbed(sandbox: Any, workload: str, seed: int, seconds: float,
                  traced: bool) -> Result:
        metrics = {metric.name: 1.0 for metric in END_TO_END}
        failures = offline.check_passes([_pass(tab1="a" * 64, fig4="c" * 64)], 2006, GOLDEN)
        return Result(workload, metrics, attempted=2, failed=0, failures=failures)

    monkeypatch.setattr(offline, "run", perturbed)
    assert cli.main(["--workload", "repro-l1"]) == 1
    out, err = capsys.readouterr()
    last = json.loads(out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 2, "failed": 0, "metrics": {}}
    assert not any(line.startswith("repro-l1 ") for line in out.splitlines())
    assert "fig4: table sha256" in err


def test_served_workloads_are_refused_on_one_cpu(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    from bench import sandbox

    real = sandbox.environment
    monkeypatch.setattr(sandbox, "environment", lambda: {**real(), "cpus_usable": 1})
    assert cli.main(["--workload", "serve-cold"]) == 3
    out, _ = capsys.readouterr()
    assert '"correct"' not in out


# -- oracles -----------------------------------------------------------
def test_kernel_oracle(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    store = TraceStore(tmp_path, fsync=False)
    assert offline.kernel_oracle(store, TINY) == []

    def off_by_one(job: SweepJob, store: TraceStore | None = None) -> Any:
        stats = execute_job(job, store=store)
        stats.misses += 1
        return stats

    monkeypatch.setattr(offline, "execute_job", off_by_one)
    failures = offline.kernel_oracle(store, TINY)
    assert len(failures) == offline.KERNEL_ORACLE_JOBS


def test_system_oracle(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    store = TraceStore(tmp_path, fsync=False)
    for benchmark, side, n, kinds in offline.trace_set("repro-system", TINY):
        store.ensure(benchmark, side, n, TINY.seed, kinds=kinds)
    assert offline.system_oracle(store, TINY) == []

    def drops_a_hit(spec: str, benchmark: str, scale: ExperimentScale) -> Any:
        result = run_system(spec, benchmark, scale)
        result.hierarchy.l1d.cache.stats.hits -= 1
        return result

    monkeypatch.setattr(offline, "run_system", drops_a_hit)
    assert len(offline.system_oracle(store, TINY)) == offline.SYSTEM_ORACLE_RUNS


# -- served snapshots and cache behaviour ------------------------------
def _served(tmp_path: Path) -> list[loadgen.Outcome]:
    store = TraceStore(tmp_path, fsync=False)
    jobs = [SweepJob(spec=spec, benchmark="gcc", n=1000, seed=3) for spec in ("dm", "2way")]
    return [loadgen.Outcome(job, 0.001, stats=execute_job(job, store=store)) for job in jobs]


def test_served_snapshots_equal_local_replays(tmp_path: Path) -> None:
    assert served.check_served(_served(tmp_path), tmp_path) == []


def test_a_perturbed_snapshot_fails(tmp_path: Path) -> None:
    outcomes = _served(tmp_path)
    outcomes[1].stats = copy.deepcopy(outcomes[1].stats)
    outcomes[1].stats.set_hits[0] += 1  # type: ignore[union-attr]
    failures = served.check_served(outcomes, tmp_path)
    assert len(failures) == 1 and "2way/gcc" in failures[0]


def _window(hits: int, misses: int) -> served.Window:
    status = {"resultcache": {"hits_memory": 0, "hits_disk": 0, "misses": 0}}
    after = {"resultcache": {"hits_memory": hits, "hits_disk": 0, "misses": misses}}
    return served.Window(loadgen.LoopReport(), loadgen.LoopReport(), status, after, 1.0)


def test_serve_cold_must_only_miss_and_gateway_hot_only_hit(tmp_path: Path) -> None:
    assert served.check_window(_window(0, 9), "serve-cold", tmp_path) == []
    assert served.check_window(_window(9, 0), "gateway-hot", tmp_path) == []
    assert "must miss" in served.check_window(_window(1, 8), "serve-cold", tmp_path)[0]
    assert "must hit" in served.check_window(_window(8, 1), "gateway-hot", tmp_path)[0]
