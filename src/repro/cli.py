"""Command-line runner: regenerate any paper figure or table.

Usage::

    bcache-repro list
    bcache-repro fig3 [--scale smoke|default|full]
    bcache-repro fig4
    bcache-repro fig5
    bcache-repro fig8
    bcache-repro fig9
    bcache-repro fig12
    bcache-repro tab1 tab2 tab3 tab56 tab7
    bcache-repro hac prior-art replacement
    bcache-repro all

One executor (:func:`repro.experiments.execute`) runs each distinct
sweep job of the invocation once.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments import DEFAULT, FULL, SMOKE, ExperimentScale
from repro.experiments import circuit_tables, comparisons, extensions
from repro.experiments import fig3_mf_sweep, latency_study, miss_decomposition
from repro.experiments import missrate_figures, perf_energy
from repro.experiments import sensitivity, tab56_tradeoff, tab7_balance
from repro.experiments.common import Experiment, RunOptions, Stats, Text, execute
from repro.experiments.report import write_report

_SCALES = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


@dataclass(frozen=True)
class Table(Experiment[Text]):
    """An experiment with its own runner and no sweep jobs."""

    table: Callable[[ExperimentScale], str]

    def result(self, scale: ExperimentScale, stats: Stats) -> Text:
        return Text(self.table(scale))


@functools.lru_cache(maxsize=1)
def _perf_energy(scale: ExperimentScale) -> perf_energy.PerfEnergyResult:
    """The system simulations behind fig8 and fig9, run once per scale."""
    return perf_energy.run(scale)


EXPERIMENTS: dict[str, Experiment[Any]] = {
    "fig3": fig3_mf_sweep.MFSweep(),
    "fig4": missrate_figures.FIG4,
    "fig5": missrate_figures.FIG5,
    "fig8": Table(lambda scale: _perf_energy(scale).render_fig8()),
    "fig9": Table(lambda scale: _perf_energy(scale).render_fig9()),
    "fig12": missrate_figures.FIG12,
    "tab1": Table(lambda scale: circuit_tables.run_tab1().render()),
    "tab2": Table(lambda scale: circuit_tables.run_tab2().render()),
    "tab3": Table(lambda scale: circuit_tables.run_tab3().render()),
    "tab56": tab56_tradeoff.Tradeoff(),
    "tab7": tab7_balance.Balance(),
    "hac": comparisons.HAC,
    "prior-art": comparisons.PRIOR_ART,
    "replacement": comparisons.Replacement(),
    "latency": latency_study.Latency(),
    "3c": Table(lambda scale: miss_decomposition.run(scale).render()),
    "sensitivity": sensitivity.SENSITIVITY,
    "addressing": Table(lambda scale: extensions.run_addressing().render()),
    "drowsy": extensions.Drowsy(),
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-repro``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-repro",
        description="Regenerate tables/figures from the B-Cache paper (ISCA 2006).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all' / 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="trace-length preset (default: default)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="additionally write the selected experiments into one "
        "markdown report file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep-backed experiments "
        "(default: $REPRO_JOBS or serial); results are bit-identical "
        "to serial runs",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="journal sweep results under this id and resume a "
        "previously killed run bit-identically (stored in "
        "$REPRO_RUN_ROOT or ~/.cache/bcache-repro/runs)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    for name in unknown:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
    if unknown:
        return 2
    scale = _SCALES[args.scale]
    selected = [EXPERIMENTS[name] for name in names]
    tables: dict[str, str] = {}
    try:
        results = execute(selected, scale, RunOptions(args.jobs, args.run_id))
        for name in names:
            started = time.time()
            print(f"== {name} (scale={args.scale}) ==")
            tables[name] = next(results).render()
            print(tables[name])
            print(f"[{time.time() - started:.1f}s]\n")
    except KeyboardInterrupt:
        print(
            "\nbcache-repro: interrupted — workers terminated"
            + (
                f"; completed jobs are journaled under run id {args.run_id!r} "
                "(rerun with the same --run-id to resume)"
                if args.run_id
                else ""
            ),
            file=sys.stderr,
        )
        return 130

    if args.report:
        path = write_report(args.report, scale, tables)
        print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
