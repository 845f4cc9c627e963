"""``python3 -m bench`` — the repository benchmark (see bench/README.md).

Usage, from the repository root::

    python3 -m bench [--workload W]... [--seed N] [--seconds S]
                     [--trace 0|1] [--out FILE]

Runs each named workload (default: all four) on seed ``N`` (default
2006) for about ``S`` seconds (default 20) of measurement.  Prints the
environment record, then every metric as ``workload metric value
unit`` (``--trace 0``: the end-to-end metrics; ``--trace 1``: the
per-layer ones), and last one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.

Exit codes: ``0`` every correctness gate passed; ``1`` a gate failed
(the gates are printed on stderr and no metric is reported); ``2`` bad
usage, or no source tree beside the benchmark; ``3`` a served workload
on fewer than 2 usable CPUs.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from types import FrameType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parser(workloads: list[str], seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2006,
                        help="input seed (default 2006, the seed of the golden digests)")
    parser.add_argument("--seconds", type=float, default=seconds,
                        help=f"measurement seconds per workload (default {seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics (default 0: end-to-end)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full run record as JSON to FILE "
                        "(a traced run adds FILE.<workload>.events.jsonl span logs)")
    return parser


def _terminate(signum: int, frame: FrameType | None) -> None:
    # Unwind through every ``finally`` so servers and shards are reaped.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no source tree at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    from bench.catalog import RUN_SECONDS, WORKLOADS

    args = _parser(list(WORKLOADS), RUN_SECONDS).parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args, args.workload or list(WORKLOADS))
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(args: argparse.Namespace, workloads: list[str]) -> int:
    from bench import offline, served
    from bench.catalog import OFFLINE_WORKLOADS, SERVE_WORKLOADS
    from bench.report import complete_metrics, metric_lines, summary
    from bench.sandbox import Sandbox, environment

    traced = bool(args.trace)
    results = []
    with Sandbox() as sandbox:
        # Recorded inside the sandbox: the environment the runs see.
        env = environment()
        print(f"# env {json.dumps(env, sort_keys=True)}")
        print(f"# seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if env["cpus_usable"] < 2 and any(w in SERVE_WORKLOADS for w in workloads):
            print(f"bench: served workloads need 2 usable CPUs, have {env['cpus_usable']}",
                  file=sys.stderr)
            return 3
        for workload in workloads:
            module = offline if workload in OFFLINE_WORKLOADS else served
            result = module.run(sandbox, workload, args.seed, args.seconds, traced)
            results.append(result)
            for note in result.notes:
                print(f"# {workload} {note}")
            for failure in result.failures:
                print(f"bench: {workload}: FAILED {failure}", file=sys.stderr)
            if result.failed:
                print(f"bench: {workload}: FAILED {result.failed} of {result.attempted} "
                      "operations", file=sys.stderr)
            if args.out is not None and result.span_logs:
                Path(f"{args.out}.{workload}.events.jsonl").write_text(
                    "".join(path.read_text() for path in result.span_logs))
        record = summary(results, traced)
    if record["correct"]:
        for result in results:
            print("\n".join(metric_lines(result.workload, complete_metrics(result, traced))))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "summary": record,
            "results": [
                {"workload": r.workload, "metrics": r.metrics, "attempted": r.attempted,
                 "failed": r.failed, "failures": r.failures, "notes": r.notes}
                for r in results
            ],
        }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
