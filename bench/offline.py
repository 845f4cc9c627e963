"""The offline workloads: repro-l1 and repro-system.

Set-up materialises the workload's declared trace set into a fresh
trace store (``TraceStore.ensure``), five times into five fresh
stores; ``setup_s`` is the median.  The measured work is a sequence
of passes, each a fresh interpreter (:mod:`bench.child`) running the
workload's experiments serially on the last store, repeated while
another pass fits in the run's seconds.  Every timing is
host-adjusted (:mod:`bench.host`).

Correctness gates, checked on every run:

* no experiment raised, and no pass had to generate a trace;
* every pass rendered byte-identical tables;
* the tables' sha256 digests match ``golden/seed2006.json`` — all of
  them at seed 2006, the seed-independent ones at every seed;
* an oracle: for repro-l1, seeded sweep jobs replayed by the batch
  kernel (``execute_job``) equal a per-access ``Cache.access`` replay;
  for repro-system, the L1 counters of seeded system simulations equal
  a batch replay of each side of the stored combined stream.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.caches import make_cache
from repro.caches.factory import FIGURE89_SPECS
from repro.engine.runner import SweepJob, execute_job
from repro.engine.trace_store import TraceStore
from repro.experiments import ExperimentScale
from repro.experiments.common import run_system
from repro.obs.traceview import load_spans
from repro.trace.access import AccessType
from repro.workloads.spec2k import ALL_BENCHMARKS

from bench.catalog import L1_EXPERIMENTS, SYSTEM_EXPERIMENTS
from bench.child import bench_scale
from bench.host import Samples, Span, pinned
from bench.report import Result
from bench.sandbox import Sandbox
from bench.spans import kernel_flavours, offline_metrics, stage_metrics
from bench.stats import percentile

GOLDEN = Path(__file__).parent / "golden" / "seed2006.json"
SETUP_REPEATS = 5
PASS_TIMEOUT_S = 150.0

#: Specs the kernel oracle samples from: every batch kernel flavour.
ORACLE_SPECS = (
    "dm", "2way", "8way", "fa", "mf8_bas8", "victim16", "column",
    "skew2", "hac", "agac", "pagecolor", "pam4", "psa2",
)
KERNEL_ORACLE_JOBS = 8
SYSTEM_ORACLE_RUNS = 3

#: ``(start, end, record)`` of one pass (:mod:`bench.child`).
Pass = tuple[float, float, dict[str, Any]]


def experiments_of(workload: str) -> tuple[str, ...]:
    return L1_EXPERIMENTS if workload == "repro-l1" else SYSTEM_EXPERIMENTS


def trace_set(workload: str, scale: ExperimentScale) -> list[tuple[str, str, int, bool]]:
    """``(benchmark, side, n, kinds)`` of every trace the workload reads.

    fig8/fig9 still regenerate their combined streams per process
    (stage trace_gen); the stored streams are what a batched system
    path would read, and what the system oracle replays.
    """
    if workload == "repro-l1":
        return [
            (benchmark, side, scale.side_n(side), False)
            for benchmark in ALL_BENCHMARKS
            for side in ("data", "instr")
        ]
    return [(benchmark, "combined", scale.instructions, True) for benchmark in ALL_BENCHMARKS]


def set_up(sandbox: Sandbox, workload: str,
           scale: ExperimentScale) -> tuple[Path, list[Span]]:
    """Fill fresh stores with the trace set; returns the last store's
    directory and when each set-up ran."""
    spans = []
    home = None
    for _ in range(SETUP_REPEATS):
        if home is not None:
            shutil.rmtree(home)
        home = sandbox.fresh("setup")
        started = time.perf_counter()
        store = TraceStore(home / "traces")
        for benchmark, side, n, kinds in trace_set(workload, scale):
            store.ensure(benchmark, side, n, scale.seed, kinds=kinds)
        spans.append((started, time.perf_counter()))
    assert home is not None
    return home, spans


def run_pass(sandbox: Sandbox, home: Path, workload: str, seed: int,
             spans: Path | None = None) -> Pass:
    """One fresh interpreter over the workload; ``(start, end, record)``."""
    argv = [sys.executable, "-m", "bench.child",
            "--experiments", ",".join(experiments_of(workload)), "--seed", str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=sandbox.env(home), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, ended, json.loads(proc.stdout.splitlines()[-1])


def run_passes(budget_s: float, run_one: Callable[[], Pass]) -> list[Pass]:
    """Passes while another (of median length) fits in ``budget_s``."""
    started = time.perf_counter()
    passes = [run_one()]
    while (time.perf_counter() - started
           + statistics.median(end - start for start, end, _ in passes)) <= budget_s:
        passes.append(run_one())
    return passes


def startup_s(host: Samples, one: Pass) -> float:
    """A pass's host-adjusted seconds outside its experiments:
    interpreter start-up and imports before them, exit after them."""
    start, end, record = one
    entries = record["experiments"].values()
    return (host.adjusted(start, min(entry["start"] for entry in entries))
            + host.adjusted(max(entry["end"] for entry in entries), end))


def pass_seconds(host: Samples, one: Pass) -> float:
    """One pass's host-adjusted wall time."""
    return startup_s(host, one) + sum(
        host.adjusted(entry["start"], entry["end"]) for entry in one[2]["experiments"].values())


def end_to_end(host: Samples, setups: list[Span], passes: list[Pass]) -> dict[str, float]:
    """The end-to-end metrics, host-adjusted; an operation is one
    experiment call.

    Each experiment counts with the median of its calls over the
    passes, so a slow spell of the host in one pass moves one sample of
    the experiments it covers, not the result: ``wall_s`` is the median
    start-up plus every experiment's median, ``p50_ms``/``p95_ms`` are
    percentiles over the experiments' medians.  An experiment that
    raised counts as infinitely slow.
    """
    calls: dict[str, list[float]] = {}
    failed: set[str] = set()
    for _, _, record in passes:
        for name, entry in record["experiments"].items():
            if "error" in entry:
                failed.add(name)
            else:
                calls.setdefault(name, []).append(host.adjusted(entry["start"], entry["end"]))
    medians = [statistics.median(series) for name, series in calls.items() if name not in failed]
    return {
        "setup_s": statistics.median(host.adjusted(start, end) for start, end in setups),
        "wall_s": statistics.median(startup_s(host, one) for one in passes) + sum(medians),
        "p50_ms": 1000.0 * percentile(medians, 50.0, len(failed)),
        "p95_ms": 1000.0 * percentile(medians, 95.0, len(failed)),
        "peak_rss_mb": max(record["maxrss_kb"] for _, _, record in passes) / 1024.0,
    }


def raw_note(host: Samples, setups: list[Span], passes: list[Pass]) -> str:
    """The unadjusted timings and the host's reference rate."""
    return (f"raw: setup_s {statistics.median(end - start for start, end in setups):.4f} s, "
            f"pass wall {statistics.median(end - start for start, end, _ in passes):.4f} s "
            f"over {len(passes)} pass(es); {host.summary()}")


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
def load_golden() -> dict[str, Any]:
    return dict(json.loads(GOLDEN.read_text()))


def check_passes(passes: list[Pass], seed: int, golden: dict[str, Any]) -> list[str]:
    """Raised experiments, generated traces, nondeterminism, digests."""
    failures = []
    digests: dict[str, set[str]] = {}
    for _, _, record in passes:
        if record["generated"]:
            failures.append(f"a pass generated {record['generated']} trace(s) "
                            "the set-up should have stored")
        for name, entry in record["experiments"].items():
            if "error" in entry:
                failures.append(f"{name} raised: {entry['error'].strip().splitlines()[-1]}")
            else:
                digests.setdefault(name, set()).add(entry["sha256"])
    checked = set(golden["seed_independent"]) if seed != golden["seed"] else set(digests)
    for name, seen in sorted(digests.items()):
        if len(seen) > 1:
            failures.append(f"{name}: passes rendered different tables")
        elif name in checked and seen != {golden["sha256"][name]}:
            failures.append(f"{name}: table sha256 {min(seen)} != golden "
                            f"{golden['sha256'][name]} (seed {golden['seed']})")
    return failures


def kernel_oracle(store: TraceStore, scale: ExperimentScale) -> list[str]:
    """Batch ``execute_job`` against per-access ``Cache.access``."""
    rng = Random(scale.seed)
    failures = []
    for _ in range(KERNEL_ORACLE_JOBS):
        side = rng.choice(("data", "instr"))
        job = SweepJob(spec=rng.choice(ORACLE_SPECS), benchmark=rng.choice(ALL_BENCHMARKS),
                       side=side, n=scale.side_n(side), seed=scale.seed)
        batch = execute_job(job, store=store)
        cache = make_cache(job.spec, size=job.size, line_size=job.line_size, policy=job.policy)
        for address in store.addresses(job.benchmark, side, job.n, job.seed):
            cache.access(address)
        if cache.stats != batch:
            failures.append(f"kernel oracle: {job.spec}/{job.benchmark}/{side} batch "
                            "stats differ from the per-access replay")
    return failures


def system_oracle(store: TraceStore, scale: ExperimentScale) -> list[str]:
    """System-model L1 counters against batch replays of each side."""
    rng = Random(scale.seed)
    failures = []
    for _ in range(SYSTEM_ORACLE_RUNS):
        spec = rng.choice(("dm",) + FIGURE89_SPECS)
        benchmark = rng.choice(ALL_BENCHMARKS)
        hierarchy = run_system(spec, benchmark, scale).hierarchy  # type: ignore[attr-defined]
        addresses, kinds = store.accesses(benchmark, "combined", scale.instructions, scale.seed)
        fetches = [a for a, k in zip(addresses, kinds) if k == AccessType.IFETCH]
        data = [(a, k) for a, k in zip(addresses, kinds) if k != AccessType.IFETCH]
        l1i, l1d = make_cache(spec), make_cache(spec)
        l1i.access_trace(fetches)
        l1d.access_trace([a for a, _ in data], [k for _, k in data])
        if hierarchy.l1i.cache.stats != l1i.stats or hierarchy.l1d.cache.stats != l1d.stats:
            failures.append(f"system oracle: {spec}/{benchmark} L1 counters differ "
                            "from a batch replay of the combined stream")
    return failures


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(sandbox: Sandbox, workload: str, seed: int, seconds: float, traced: bool) -> Result:
    """Measure one offline workload.

    A traced run measures untraced passes for half the seconds, then
    one traced pass; the per-layer counts are that pass's, so they do
    not depend on how many passes fit.
    """
    scale = bench_scale(seed)
    budget = seconds / 2 if traced else seconds
    spans = None
    with pinned(), sandbox.sampling() as samples:
        home, setups = set_up(sandbox, workload, scale)
        passes = run_passes(budget, lambda: run_pass(sandbox, home, workload, seed))
        if traced:
            spans = home / "spans.jsonl"
            passes.append(run_pass(sandbox, home, workload, seed, spans))
    host = Samples.load(samples)
    notes = []
    span_logs = []
    if spans is not None:
        traced_pass = passes[-1]
        traces = load_spans([spans])
        metrics = stage_metrics(traces)
        metrics.update(offline_metrics(traces))
        metrics["trace.overhead_ratio"] = pass_seconds(host, traced_pass) / statistics.median(
            pass_seconds(host, one) for one in passes[:-1])
        metrics["stage.kernel.per_access_refs"] = traced_pass[2]["per_access_refs"]
        metrics["trace_store.generated"] = traced_pass[2]["generated"]
        notes += [f"kernel flavour {cls} {flavour}"
                  for cls, flavour in sorted(kernel_flavours(traces).items())]
        span_logs.append(spans)
    else:
        metrics = end_to_end(host, setups, passes)
        notes.append(raw_note(host, setups, passes))

    store = TraceStore(home / "traces")
    failures = check_passes(passes, seed, load_golden())
    failures += (kernel_oracle if workload == "repro-l1" else system_oracle)(store, scale)
    entries = [entry for _, _, record in passes for entry in record["experiments"].values()]
    notes += [f"digest {name} {entry['sha256']}"
              for name, entry in passes[0][2]["experiments"].items() if "sha256" in entry]
    return Result(
        workload=workload,
        metrics=metrics,
        attempted=len(entries),
        failed=sum(1 for entry in entries if "error" in entry),
        failures=failures,
        notes=notes,
        span_logs=span_logs,
    )
