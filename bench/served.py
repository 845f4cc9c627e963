"""The served workloads: serve-cold and gateway-hot.

Both run ``bcache-serve --shards 2 --result-cache <fresh>`` on a Unix
socket; gateway-hot puts ``bcache-gateway --pool 2`` in front of it.
The load comes from this process over 2 connections, in rounds of a
closed pass (``wall_s``; ``p50_ms`` and ``p95_ms`` of its requests)
and a short open-loop segment at a fixed rate (timed from each
request's due time, and reported as a note); see :mod:`bench.loadgen`.
Every timing is host-adjusted by the samples the host sampler took
while it ran (:mod:`bench.host`); the stack, the load and the sampler
all run on one CPU (``bench.host.pinned``).

* serve-cold: the jobs are 8 specs x 26 benchmarks x 2 sides x 4 sizes
  x 2 line sizes at n = 5,000, ordered by the seed; no job repeats,
  so every request is a result-cache miss followed by a durable store.
* gateway-hot: set-up warms the cache with 8 specs x 26 benchmarks at
  16 kB/32 B; the measured requests are drawn from that set, so every
  one is a memory hit and the kernel never runs in the timed window.

``setup_s`` is the median of three fresh set-ups, each: ``ensure`` of
the trace set into a fresh store, then spawning the server (and
gateway) until ``status`` answers, then a warm-up pass (gateway-hot:
the hot set, filling the result cache; serve-cold: one 4 kB job per
trace, a size the measured jobs never use).  Correctness gates: no
request failed; a seeded sample of served snapshots equals local
``execute_job`` replays
(``repro.serve.loadgen.verify_identical``); the result cache saw only
misses (serve-cold) or only hits (gateway-hot) in the timed window.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from subprocess import Popen
from typing import Any

from repro.engine.resilience import job_key
from repro.engine.runner import SweepJob
from repro.engine.trace_store import TraceStore, set_default_store
from repro.obs.traceview import load_spans
from repro.serve.client import AsyncServeClient
from repro.serve.loadgen import GatewayClient, verify_identical
from repro.workloads.spec2k import ALL_BENCHMARKS

from bench import loadgen
from bench.host import Samples, Span, pinned
from bench.report import Result
from bench.sandbox import Sandbox, wait_ready
from bench.spans import stage_metrics
from bench.stats import percentile

SPECS = ("dm", "2way", "4way", "8way", "mf8_bas8", "victim16", "column", "skew2")
N = 5_000
SHARDS = 2
CONNECTIONS = 2
SETUP_REPEATS = 3
VERIFY_SAMPLE = 64
#: gateway-hot plans this many rounds (about 0.3 s each), more than
#: any window runs.
HOT_ROUNDS = 1000
#: A request the generator queued later than this after its due time
#: counts as late (``loadgen.late_ratio``).
LATE_S = 0.001


@dataclass(frozen=True)
class Shape:
    """How one served workload drives its stack.

    The window is a run of rounds, each a closed pass of ``pass_size``
    jobs and then an open-loop segment of ``open_size`` requests at
    ``rate`` per second, until the window's seconds are spent.  The
    end-to-end metrics come from the closed passes: a closed loop runs
    as fast as the stack answers, so a slow spell of the host slows it
    in proportion, and the host adjustment cancels that.  An open loop
    at a fixed rate instead queues more as the host slows, which no
    adjustment undoes; its latencies are reported as a note, and its
    generator lag in the traced run.  Short rounds make many passes,
    so a run's median pass is steady.
    """

    gateway: bool
    rate: float
    pass_size: int
    open_size: int


SHAPES = {
    "serve-cold": Shape(gateway=False, rate=40.0, pass_size=32, open_size=8),
    "gateway-hot": Shape(gateway=True, rate=300.0, pass_size=208, open_size=45),
}


def cold_jobs(seed: int) -> list[SweepJob]:
    """Every cold job once, cycling through the specs.

    The spec sets most of a job's cost, so a fixed spec cycle gives
    every pass and every second of the open loop the same mix; the
    seed orders the benchmarks, sides and geometries within each spec.
    """
    rng = Random(seed)
    per_spec = []
    for spec in SPECS:
        jobs = [
            SweepJob(spec=spec, benchmark=benchmark, side=side, n=N, seed=seed,
                     size=size, line_size=line_size)
            for benchmark in ALL_BENCHMARKS
            for side in ("data", "instr")
            for size in (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)
            for line_size in (32, 64)
        ]
        rng.shuffle(jobs)
        per_spec.append(jobs)
    return [job for cycle in zip(*per_spec) for job in cycle]


def hot_jobs(seed: int) -> list[SweepJob]:
    return [SweepJob(spec=spec, benchmark=benchmark, n=N, seed=seed)
            for spec in SPECS for benchmark in ALL_BENCHMARKS]


def warm_jobs(workload: str, seed: int) -> list[SweepJob]:
    """The set-up pass: the hot set, or for serve-cold one 4 kB job per
    trace (a size the measured jobs never use, so they still miss).

    Either way every shard has loaded its traces and run every kernel
    once before the timed window, as in a server that has been up.
    """
    if workload == "gateway-hot":
        return hot_jobs(seed)
    traces = [(benchmark, side) for benchmark in ALL_BENCHMARKS for side in ("data", "instr")]
    return [SweepJob(spec=SPECS[i % len(SPECS)], benchmark=benchmark, side=side, n=N,
                     seed=seed, size=4 * 1024)
            for i, (benchmark, side) in enumerate(traces)]


@dataclass
class Stack:
    """A running server (and gateway) and where it keeps its state."""

    home: Path
    server: Popen[str]
    gateway: Popen[str] | None
    address: str

    async def connect(self) -> Any:
        if self.gateway is not None:
            return await GatewayClient.connect(self.address)
        return await AsyncServeClient.connect(self.address)

    async def _status(self) -> dict[str, Any]:
        client = await self.connect()
        try:
            return dict(await client.status())
        finally:
            await client.close()

    def status(self) -> dict[str, Any]:
        return loadgen.run(self._status(), timeout=30.0)

    def peak_rss_mb(self, status: dict[str, Any]) -> float:
        """Summed ``VmHWM`` of the server, its shards and the gateway."""
        pids = [self.server.pid] + [shard["pid"] for shard in status["shards"]]
        if self.gateway is not None:
            pids.append(self.gateway.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def start_stack(sandbox: Sandbox, workload: str, seed: int, obs: str) -> tuple[Stack, Span]:
    """One fresh set-up; the running stack and when the set-up ran."""
    home = sandbox.fresh(workload)
    started = time.perf_counter()
    store = TraceStore(home / "traces")
    for benchmark in ALL_BENCHMARKS:
        for side in ("data", "instr") if workload == "serve-cold" else ("data",):
            store.ensure(benchmark, side, N, seed)
    # Relative, so the socket path stays under the 108-byte limit
    # wherever the checkout lives.
    sock = os.path.relpath(home / "serve.sock")
    server = sandbox.spawn(
        [sys.executable, "-m", "repro.serve", "--unix", sock, "--shards", str(SHARDS),
         "--result-cache", str(home / "results"), "--store", str(home / "traces")],
        sandbox.env(home, obs=obs, log=home / "serve-events.jsonl"), home / "serve.log",
    )
    wait_ready(server, "bcache-serve")
    stack = Stack(home, server, None, f"unix:{sock}")
    if SHAPES[workload].gateway:
        stack.gateway = sandbox.spawn(
            [sys.executable, "-m", "repro.serve.gateway", "--port", "0",
             "--pool", str(CONNECTIONS), "--backend", stack.address],
            sandbox.env(home, obs=obs, log=home / "gateway-events.jsonl"),
            home / "gateway.log",
        )
        ready = wait_ready(stack.gateway, "bcache-gateway")
        stack.address = "http://" + next(
            word.split("=", 1)[1] for word in ready.split() if word.startswith("http=")
        )
    stack.status()
    warm, _ = loadgen.run(
        loadgen.drive(stack.connect, [loadgen.Round(closed=warm_jobs(workload, seed))],
                      SHAPES[workload].rate, CONNECTIONS),
        timeout=120.0,
    )
    errors = [outcome.error for outcome in warm.outcomes if outcome.error]
    if errors:
        raise RuntimeError(f"{workload} warm-up failed: {errors[0]}")
    return stack, (started, time.perf_counter())


def stop_stack(sandbox: Sandbox, stack: Stack) -> None:
    if stack.gateway is not None:
        sandbox.stop(stack.gateway)
    sandbox.stop(stack.server)


@dataclass
class Window:
    """What one timed window measured."""

    closed: loadgen.LoopReport
    opened: loadgen.LoopReport
    before: dict[str, Any]
    after: dict[str, Any]
    peak_rss_mb: float
    failures: list[str] = field(default_factory=list)

    @property
    def outcomes(self) -> list[loadgen.Outcome]:
        return self.closed.outcomes + self.opened.outcomes

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error)

    def percentile(self, outcomes: list[loadgen.Outcome], q: float,
                   host: Samples | None = None) -> float:
        """Latency percentile in ms; host-adjusted when ``host`` is given."""
        ok = [outcome.latency if host is None
              else host.adjusted(outcome.start, outcome.start + outcome.latency)
              for outcome in outcomes if not outcome.error]
        return 1000.0 * percentile(ok, q, len(outcomes) - len(ok))

    def delta(self, section: str, key: str) -> int:
        return int(self.after[section][key]) - int(self.before[section][key])


def plan(workload: str, seed: int) -> list[loadgen.Round]:
    """Every round a window may run: a closed pass, then an open segment.

    serve-cold runs through its job space once at most; gateway-hot
    draws from the warm set, with more rounds than any window reaches.
    """
    shape = SHAPES[workload]
    if workload == "serve-cold":
        jobs = cold_jobs(seed)
        per_round = shape.pass_size + shape.open_size
        return [loadgen.Round(closed=jobs[start:start + shape.pass_size],
                              open=jobs[start + shape.pass_size:start + per_round])
                for start in range(0, len(jobs) - per_round + 1, per_round)]
    warm = hot_jobs(seed)
    rng = Random(seed)
    return [loadgen.Round(closed=rng.sample(warm, len(warm)),
                          open=[rng.choice(warm) for _ in range(shape.open_size)])
            for _ in range(HOT_ROUNDS)]


def measure(stack: Stack, workload: str, seed: int, seconds: float) -> Window:
    """The timed window, between two ``status`` reads.

    A seeded sample of the first distinct jobs is chosen up front;
    their answers are kept for the replay gate.
    """
    rounds = plan(workload, seed)
    first = list(dict.fromkeys(job for round_ in rounds[:8] for job in round_.closed + round_.open))
    keep = frozenset(Random(seed).sample(first, min(VERIFY_SAMPLE, len(first))))
    before = stack.status()
    closed, opened = loadgen.run(
        loadgen.drive(stack.connect, rounds, SHAPES[workload].rate, CONNECTIONS, keep, seconds),
        timeout=3 * seconds + 60.0,
    )
    after = stack.status()
    window = Window(closed, opened, before, after, stack.peak_rss_mb(after))
    window.failures = check_window(window, workload, stack.home / "traces")
    if len(closed.passes) == len(rounds):
        window.failures.append(f"{workload}: ran out of rounds; the window needs more jobs")
    return window


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
def check_window(window: Window, workload: str, store_root: Path) -> list[str]:
    """Served snapshots against local replays; the cache saw what it should."""
    failures = []
    hits = window.delta("resultcache", "hits_memory") + window.delta("resultcache", "hits_disk")
    misses = window.delta("resultcache", "misses")
    if workload == "serve-cold" and hits:
        failures.append(f"serve-cold: {hits:.0f} result-cache hit(s); every request must miss")
    if workload == "gateway-hot" and misses:
        failures.append(f"gateway-hot: {misses:.0f} result-cache miss(es); every request must hit")
    served = [outcome for outcome in window.outcomes if outcome.stats is not None]
    failures += check_served(served, store_root)
    return failures


def check_served(served: list[loadgen.Outcome], store_root: Path) -> list[str]:
    """Served snapshots, replayed locally on the same trace store."""
    previous = set_default_store(TraceStore(store_root))
    try:
        identical, mismatches = verify_identical(
            {job_key(outcome.job): outcome.stats for outcome in served},
            [outcome.job for outcome in served],
        )
    finally:
        set_default_store(previous)
    return [] if identical else mismatches


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(host: Samples, setups: list[Span], window: Window) -> dict[str, float]:
    """The end-to-end metrics, host-adjusted, from the closed passes:
    the median pass and the percentiles of its requests' latencies."""
    closed = window.closed
    return {
        "setup_s": statistics.median(host.adjusted(start, end) for start, end in setups),
        "wall_s": statistics.median(host.adjusted(start, end) for start, end in closed.passes),
        "p50_ms": window.percentile(closed.outcomes, 50.0, host),
        "p95_ms": window.percentile(closed.outcomes, 95.0, host),
        "peak_rss_mb": window.peak_rss_mb,
    }


def raw_note(host: Samples, setups: list[Span], window: Window) -> str:
    """The unadjusted timings, closed-loop throughput and the host's rate."""
    closed = window.closed
    walls = [end - start for start, end in closed.passes]
    return (f"raw: setup_s {statistics.median(end - start for start, end in setups):.4f} s, "
            f"pass wall {statistics.median(walls):.4f} s over {len(walls)} passes, "
            f"{len(closed.outcomes) / sum(walls):.1f} req/s, p50 "
            f"{window.percentile(closed.outcomes, 50.0):.3f} ms, p95 "
            f"{window.percentile(closed.outcomes, 95.0):.3f} ms; {host.summary()}")


def serve_counters(window: Window) -> dict[str, float]:
    """Counter deltas over the window, from ``status`` before and after."""
    batches = window.delta("batcher", "batches")
    hits = window.delta("resultcache", "hits_memory") + window.delta("resultcache", "hits_disk")
    misses = window.delta("resultcache", "misses")
    lags = [outcome.lag for outcome in window.opened.outcomes]
    counters = (window.closed.counters, window.opened.counters)
    return {
        "serve.batches": batches,
        "serve.mean_batch_size": (window.delta("batcher", "batched_jobs") / batches
                                  if batches else 0.0),
        "serve.coalesced": window.delta("batcher", "coalesced"),
        "serve.singleflight_waits": window.delta("server", "singleflight_waits"),
        "serve.resultcache.hits": hits,
        "serve.resultcache.misses": misses,
        "serve.resultcache.stores": window.delta("resultcache", "stores"),
        "serve.resultcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.shard_restarts": window.delta("server", "shard_restarts_total"),
        "loadgen.shed_retries": sum(c.shed_retries for c in counters),
        "loadgen.rate_limited_retries": sum(c.rate_limited_retries for c in counters),
        "loadgen.late_ratio": sum(1 for lag in lags if lag > LATE_S) / len(lags),
    }


def _open_note(window: Window, host: Samples) -> str:
    """The open loop's sample count, full latency tail and generator lag."""
    lags = [outcome.lag for outcome in window.opened.outcomes]
    tail = ", ".join(f"p{q:g} {window.percentile(window.opened.outcomes, q, host):.3f}"
                     for q in (50, 95, 99, 99.9))
    return (f"open loop: {len(lags)} requests, adjusted latency {tail} ms; generator lag "
            f"p99 {1000.0 * percentile(lags, 99.0):.3f} ms, max {1000.0 * max(lags):.3f} ms")


def _timed_logs(offsets: dict[Path, int]) -> list[Path]:
    """Copy the part of each event log written after ``offsets``."""
    copies = []
    for path, offset in offsets.items():
        if not path.exists():
            continue
        target = path.with_name("timed-" + path.name)
        with open(path, "rb") as source:
            source.seek(offset)
            target.write_bytes(source.read())
        copies.append(target)
    return copies


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(sandbox: Sandbox, workload: str, seed: int, seconds: float, traced: bool) -> Result:
    """Measure one served workload.

    A traced run measures an untraced window and then a traced window
    (``REPRO_OBS=full``), each on a fresh stack for half the seconds.
    Stage metrics come from the traced window's spans, counters from
    the untraced window, and the overhead is the traced p50 over the
    untraced p50.
    """
    windows = []
    notes = []
    span_logs: list[Path] = []
    with pinned(), sandbox.sampling() as samples:
        if not traced:
            setups = []
            stack = None
            for _ in range(SETUP_REPEATS):
                if stack is not None:
                    stop_stack(sandbox, stack)
                stack, span = start_stack(sandbox, workload, seed, "off")
                setups.append(span)
            assert stack is not None
            windows.append(measure(stack, workload, seed, seconds))
            stop_stack(sandbox, stack)
        else:
            stack, _ = start_stack(sandbox, workload, seed, "off")
            windows.append(measure(stack, workload, seed, seconds / 2))
            stop_stack(sandbox, stack)
            stack, _ = start_stack(sandbox, workload, seed, "full")
            logs = [stack.home / "serve-events.jsonl"]
            if stack.gateway is not None:
                logs.append(stack.home / "gateway-events.jsonl")
            offsets = {path: path.stat().st_size if path.exists() else 0 for path in logs}
            windows.append(measure(stack, workload, seed, seconds / 2))
            # Stopping drains the stack, so every span of the window is on disk.
            stop_stack(sandbox, stack)
            span_logs = _timed_logs(offsets)
    host = Samples.load(samples)
    if not traced:
        metrics = end_to_end(host, setups, windows[0])
        notes.append(raw_note(host, setups, windows[0]))
    else:
        metrics = stage_metrics(load_spans(span_logs))
        # Counters cost nothing, so they come from the untraced window:
        # tracing's extra CPU load would make the generator look late.
        metrics.update(serve_counters(windows[0]))
        untraced, traced_window = (window.percentile(window.closed.outcomes, 50.0, host)
                                   for window in windows)
        metrics["trace.overhead_ratio"] = traced_window / untraced
    return Result(
        workload=workload,
        metrics=metrics,
        attempted=sum(len(window.outcomes) for window in windows),
        failed=sum(window.failed for window in windows),
        failures=[failure for window in windows for failure in window.failures],
        notes=[_open_note(window, host) for window in windows] + notes,
        span_logs=span_logs,
    )
