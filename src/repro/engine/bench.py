"""``bcache-bench`` — perf-tracking harness for the engine hot paths.

Measures two things and writes them to ``BENCH_engine.json``:

* **Hot-loop speedup** — wall time of the per-access ``Cache.access``
  replay vs the batch :meth:`Cache.access_trace` kernel, per spec, on
  one seeded mixed (read/write) reference stream.  Each measurement is
  the *minimum* of several repeats of a fresh-cache replay, the paths
  taking turns (minimum is the standard robust estimator for timing
  noise), and the two paths'
  :class:`~repro.stats.counters.CacheStats` are asserted bit-identical
  before any number is reported.
* **Sweep scaling** — wall time (minimum of three runs, serial and
  parallel runs taking turns) of a (spec x benchmark) sweep through
  :func:`repro.engine.runner.run_sweep` serially and at each requested
  worker count, asserting bit-identical statistics at every count.

Regression gating compares *speedup ratios*, not absolute seconds:
ratios are dimensionless, so a baseline recorded on one machine
transfers to another.  ``--check BASELINE`` fails (exit 1) when any
spec's hot-loop speedup drops below ``tolerance`` (default 0.7, i.e. a
30 % regression) times the baseline's, or when any parallel sweep
stops being bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.caches import make_cache
from repro.engine.runner import SweepJob, available_cpus, run_sweep
from repro.engine.trace_store import default_store
from repro.obs import events as obs_events
from repro.stats.counters import CacheStats

SCHEMA = "bcache-bench/1"

#: Hot-loop specs: the baseline, a classic set-associative design, the
#: paper's headline B-Cache point, three prior-art organisations with
#: their own kernels, AGAC's relocating kernel and way prediction on
#: the set-associative kernel.
HOT_SPECS = (
    "dm", "8way", "mf8_bas8", "victim16", "column", "skew2", "agac", "psa2",
)

#: Sweep grid for the scaling measurement.
SWEEP_SPECS = ("dm", "2way", "4way", "8way", "mf8_bas8", "victim16")
SWEEP_BENCHMARKS = ("gzip", "gcc", "equake", "mcf")


def _replay_scalar(
    cache: Any, addresses: Sequence[int], kinds: Sequence[int]
) -> float:
    """Per-access replay; returns elapsed seconds."""
    access = cache.access
    start = time.perf_counter()
    for address, kind in zip(addresses, kinds):
        access(address, kind == 1)
    return time.perf_counter() - start


def _replay_batch(
    cache: Any, addresses: Sequence[int], kinds: Sequence[int]
) -> float:
    """Batch replay; returns elapsed seconds."""
    start = time.perf_counter()
    cache.access_trace(addresses, kinds)
    return time.perf_counter() - start


def bench_hot_loop(
    n: int, repeats: int, benchmark: str = "gcc", seed: int = 2006
) -> dict:
    """Time scalar vs batch replay per spec; verify identical stats.

    ``kernel`` names the batch flavour ``access_trace`` ran on (the
    vectorised dm kernel reports ``"numpy"``).
    """
    addresses, kinds = default_store().accesses(benchmark, "data", n, seed)
    results = {}
    for spec in HOT_SPECS:
        scalar_cache = make_cache(spec)
        scalar_times, batch_times = [], []
        # The flavours take turns, so a slow spell of the host lands on
        # both sides of a speedup ratio instead of on all the repeats
        # of one side.
        for i in range(repeats):
            scalar_times.append(
                _timed_iteration(_replay_scalar, spec, "scalar", i, addresses, kinds)
            )
            batch_times.append(
                _timed_iteration(_replay_batch, spec, "batch", i, addresses, kinds)
            )
        scalar_time = min(scalar_times)
        batch_time = min(batch_times)
        # Correctness gate: one final replay of each flavour, compared
        # field-for-field (including the per-set counters).
        _replay_scalar(scalar_cache, addresses, kinds)
        batch_cache = make_cache(spec)
        _replay_batch(batch_cache, addresses, kinds)
        results[spec] = {
            "scalar_s": scalar_time,
            "batch_s": batch_time,
            "kernel": batch_cache.last_kernel,
            "speedup": scalar_time / batch_time if batch_time > 0 else 0.0,
            "identical_stats": scalar_cache.stats == batch_cache.stats,
        }
    return results


def _timed_fresh(
    replay: Callable[[Any, Sequence[int], Sequence[int]], float],
    spec: str,
    addresses: Sequence[int],
    kinds: Sequence[int],
) -> float:
    """One timed replay on a freshly built cache (state-independent)."""
    return replay(make_cache(spec), addresses, kinds)


def _timed_iteration(
    replay: Callable[[Any, Sequence[int], Sequence[int]], float],
    spec: str,
    flavor: str,
    iteration: int,
    addresses: Sequence[int],
    kinds: Sequence[int],
) -> float:
    """One timed replay, reporting the raw sample to the obs event log.

    ``BENCH_engine.json`` only keeps the minimum of the repeats; with
    ``--obs-log`` every individual sample survives, so a suspicious
    delta between two reports can be root-caused (noisy neighbour vs
    genuine regression) after the fact.
    """
    seconds = _timed_fresh(replay, spec, addresses, kinds)
    obs_events.emit("bench.iteration", spec=spec, flavor=flavor, iteration=iteration,
                    dur_s=round(seconds, 6), refs=len(addresses))
    return seconds


def bench_sweep(
    n: int, job_counts: tuple[int, ...], seed: int = 2006, repeats: int = 1
) -> dict:
    """Time a sweep serially and per worker count; verify identical.

    Each wall time is the minimum of ``repeats`` runs, like the hot
    loop's.  The runs take turns (serial, then each worker count, per
    round), so a slow spell of the host lands on both sides of a
    ``vs_serial`` ratio instead of on all the repeats of one side.
    """
    sweep = [
        SweepJob(spec=spec, benchmark=benchmark, n=n, seed=seed)
        for spec in SWEEP_SPECS
        for benchmark in SWEEP_BENCHMARKS
    ]
    store = default_store()
    for job in sweep:  # materialise traces so timing excludes generation
        store.ensure(job.benchmark, job.side, job.n, job.seed)

    counts = [1, *dict.fromkeys(count for count in job_counts if count > 1)]
    times: dict[int, list[float]] = {count: [] for count in counts}
    stats: dict[int, list[CacheStats]] = {}
    for _ in range(repeats):
        for count in counts:
            start = time.perf_counter()
            stats[count] = run_sweep(sweep, workers=count)
            times[count].append(time.perf_counter() - start)

    serial_time = min(times[1])
    results: dict = {
        "jobs_total": len(sweep),
        "serial_s": serial_time,
        "workers": {},
    }
    for count in counts[1:]:
        # Workers read each trace from the store's disk blobs, so this
        # wall time includes worker start-up and their blob reads.
        elapsed = min(times[count])
        results["workers"][str(count)] = {
            "wall_s": elapsed,
            "vs_serial": elapsed / serial_time if serial_time > 0 else 0.0,
            "speedup": serial_time / elapsed if elapsed > 0 else 0.0,
            "identical_stats": stats[count] == stats[1],
        }
    return results


def run_benchmarks(
    quick: bool, job_counts: tuple[int, ...], seed: int = 2006
) -> dict:
    """Run the full harness; returns the JSON-ready report."""
    hot_n = 50_000 if quick else 200_000
    repeats = 5
    # The quick sweep must outlast pool start-up and the contention of
    # two workers on a 2-CPU runner: ~0.3 s serially, so a parallel
    # run that cannot beat serial is a finding, not timer noise.
    sweep_n = 25_000 if quick else 50_000
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
        "cpus_usable": available_cpus(),
        "hot_loop": bench_hot_loop(hot_n, repeats, seed=seed),
        "sweep": bench_sweep(sweep_n, job_counts, seed=seed, repeats=3),
    }


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float = 0.7
) -> list[str]:
    """Regression check; returns a list of failure messages (empty = ok).

    The parallel-efficiency gate (``vs_serial`` must stay under 1.0)
    only fires when the machine actually has as many usable CPUs as the
    sweep used workers: on a 1-CPU CI runner a 4-worker sweep *cannot*
    beat serial, so the ratio is recorded but not judged there.
    """
    failures = []
    for spec, entry in report["hot_loop"].items():
        if not entry["identical_stats"]:
            failures.append(f"{spec}: batch stats diverge from per-access stats")
        base = baseline.get("hot_loop", {}).get(spec)
        if base is None or "speedup" not in base:
            continue
        floor = base["speedup"] * tolerance
        if entry["speedup"] < floor:
            failures.append(
                f"{spec}: hot-loop speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x ({tolerance:.0%} of baseline "
                f"speedup {base['speedup']:.2f}x)"
            )
    cpus_usable = int(report.get("cpus_usable", 1))
    for count, entry in report["sweep"]["workers"].items():
        if not entry["identical_stats"]:
            failures.append(f"sweep with {count} workers is not bit-identical")
        if int(count) <= cpus_usable and entry["vs_serial"] > 1.0:
            failures.append(
                f"sweep with {count} workers is slower than serial "
                f"(vs_serial {entry['vs_serial']:.2f} with {cpus_usable} "
                "usable CPUs): parallel dispatch is not paying off"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-bench``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-bench",
        description="Engine perf-tracking harness (hot loop + sweep scaling).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller traces / fewer repeats (CI smoke)")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output JSON path (default BENCH_engine.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON; exit 1 on a "
                        ">30%% hot-loop regression or non-identical "
                        "parallel stats")
    parser.add_argument("--tolerance", type=float, default=0.7,
                        help="minimum fraction of the baseline speedup to "
                        "accept (default 0.7)")
    parser.add_argument("--jobs", default="2,4",
                        help="comma-separated worker counts for the sweep "
                        "scaling measurement (default 2,4)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--obs-log", metavar="PATH",
                        help="write raw per-iteration timings as obs events "
                        "to PATH (enables the events tier if REPRO_OBS is "
                        "off)")
    args = parser.parse_args(argv)

    try:
        job_counts = tuple(int(part) for part in args.jobs.split(",") if part)
    except ValueError:
        print(f"bad --jobs list: {args.jobs!r}", file=sys.stderr)
        return 2

    if args.obs_log:
        obs_events.configure(
            mode="full" if obs_events.metrics_enabled() else "events",
            log_path=args.obs_log,
        )

    report = run_benchmarks(args.quick, job_counts, seed=args.seed)

    for spec, entry in report["hot_loop"].items():
        flag = "" if entry["identical_stats"] else "  [STATS MISMATCH]"
        print(
            f"{spec:<10} scalar {entry['scalar_s'] * 1e3:8.1f} ms   "
            f"batch[{entry['kernel']}] {entry['batch_s'] * 1e3:8.1f} ms   "
            f"speedup {entry['speedup']:5.2f}x{flag}"
        )
    sweep = report["sweep"]
    print(f"sweep      {sweep['jobs_total']} jobs serial "
          f"{sweep['serial_s'] * 1e3:8.1f} ms")
    for count, entry in sweep["workers"].items():
        flag = "" if entry["identical_stats"] else "  [STATS MISMATCH]"
        print(
            f"  --jobs {count:<3} {entry['wall_s'] * 1e3:8.1f} ms   "
            f"{entry['vs_serial']:.0%} of serial{flag}"
        )

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.check}: {exc}", file=sys.stderr)
            return 2
        failures = check_against_baseline(report, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
