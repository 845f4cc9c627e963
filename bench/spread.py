"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root::

    PYTHONPATH=src python3 -m bench.spread [--workload W]... [--runs 10]
                                           [--first-seed 1] [--out FILE]

Runs ``python3 -m bench`` once per seed (``first-seed`` onwards) for
each workload and prints, per metric, the median of the runs and the
distance between their first and third quartile as a share of the
median: the spread each bound in ``BENCHMARK.json`` is judged against.
A spread at or above a third of its bound is flagged.  It also prints
how long the runs took, set-up and checks included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.catalog import END_TO_END, WORKLOADS
from bench.stats import quartile_spread

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int) -> dict[str, float]:
    """One run's end-to-end metrics, plus ``elapsed_s``: how long it took."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    record = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not record.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-4000:]}")
    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    metrics["elapsed_s"] = time.perf_counter() - started
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.spread")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's metrics as JSON to FILE")
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {}
    for workload in args.workload or list(WORKLOADS):
        runs = [run_once(workload, seed)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        values[workload] = {name: [run[name] for run in runs]
                            for name in [metric.name for metric in END_TO_END] + ["elapsed_s"]}
        elapsed = values[workload]["elapsed_s"]
        print(f"{workload:<13} runs took median {statistics.median(elapsed):.1f} s, "
              f"max {max(elapsed):.1f} s", flush=True)
        for metric in END_TO_END:
            series = values[workload][metric.name]
            spread = quartile_spread(series)
            flag = "" if spread < metric.bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:<13} {metric.name:<12} median {statistics.median(series):12.5g} "
                  f"{metric.unit:<6} spread {spread:7.2%} bound {metric.bound:.0%}{flag}",
                  flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(values, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
