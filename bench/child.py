"""One offline pass: a fresh interpreter runs a list of experiments.

The harness starts ``python -m bench.child`` once per pass, so every
pass pays interpreter start-up and imports, as every reproduction run
does.  The pass prints one JSON record on stdout: per experiment its
start and end (``time.perf_counter``, which the harness's clock and
the host sampler's share), the sha256 of its rendered table and the
error if it raised; plus the pass's peak RSS and how many traces it
had to generate (the set-up should have left none to generate).

With ``--spans FILE`` the pass first installs the stage recorder of
:mod:`bench.spans` and writes the spans to ``FILE`` at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
import traceback
from pathlib import Path
from typing import Any

from repro.experiments import SMOKE, ExperimentScale


def bench_scale(seed: int) -> ExperimentScale:
    """The offline workloads' scale: an eighth of ``SMOKE``.

    One pass of repro-l1 at ``SMOKE`` takes about a minute; at an
    eighth a 20 s run fits one or two passes of repro-l1 and two to
    four of repro-system, so most experiments are timed more than once
    and a slow spell of the host in one pass is outvoted.
    """
    return ExperimentScale(
        data_n=SMOKE.data_n // 8,
        instr_n=SMOKE.instr_n // 8,
        instructions=SMOKE.instructions // 8,
        seed=seed,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--experiments", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    from repro.cli import EXPERIMENTS, RunOptions
    from repro.engine.trace_store import default_store

    recorder = None
    if args.spans is not None:
        from bench.spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    scale = bench_scale(args.seed)
    results = {}
    for name in args.experiments.split(","):
        run = EXPERIMENTS[name]
        started = time.perf_counter()
        try:
            if recorder is None:
                table = run(scale, RunOptions())
            else:
                with recorder.experiment(name):
                    table = run(scale, RunOptions())
            entry: dict[str, Any] = {"sha256": hashlib.sha256(table.encode("utf-8")).hexdigest()}
        except Exception:  # one failed experiment must not hide the rest
            entry = {"error": traceback.format_exc(limit=4)}
        entry["start"], entry["end"] = started, time.perf_counter()
        results[name] = entry
    record = {
        "experiments": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "generated": default_store().disk_misses,
    }
    if recorder is not None:
        recorder.settle()
        record["per_access_refs"] = recorder.per_access_refs
        recorder.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
