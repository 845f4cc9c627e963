"""Design-space sensitivity sweeps beyond the paper's fixed points.

The paper fixes 32-byte lines and studies 8/16/32 kB capacities.  These
sweeps check that the B-Cache's advantage is not an artefact of that
geometry:

* ``line_size_sweep``  — 16/32/64-byte lines at 16 kB;
* ``cache_size_sweep`` — 4 kB to 64 kB at 32-byte lines (a superset of
  the paper's Figure 12 range).

Each point reports the direct-mapped baseline miss rate and the
reductions of the 4-way, 8-way and B-Cache organisations, averaged
over a benchmark subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.common import (
    Composite,
    ExperimentScale,
    Pair,
    Paired,
    Stats,
    Text,
    mean_reduction,
    versus_dm,
)
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction

SWEEP_SPECS = ("4way", "8way", "mf8_bas8")
SWEEP_BENCHMARKS = ("equake", "crafty", "gzip", "mcf", "twolf", "mesa")


@dataclass(frozen=True)
class SweepPoint:
    label: str
    baseline_miss_rate: float
    reductions: dict[str, float]


@dataclass(frozen=True)
class SensitivityResult:
    axis: str
    points: tuple[SweepPoint, ...]

    def render(self) -> str:
        rows = []
        for point in self.points:
            row: list[object] = [point.label, 100.0 * point.baseline_miss_rate]
            row.extend(100.0 * point.reductions[s] for s in SWEEP_SPECS)
            rows.append(row)
        return format_table(
            [self.axis, "DM miss%"] + [f"{s} red%" for s in SWEEP_SPECS],
            rows,
            title=f"Sensitivity sweep over {self.axis}",
        )

    def reduction_series(self, spec: str) -> list[float]:
        return [point.reductions[spec] for point in self.points]


@dataclass(frozen=True)
class Sweep(Paired[SensitivityResult]):
    """One sensitivity sweep: ``points`` are ``(label, size, line_size)``."""

    axis: str
    points: tuple[tuple[str, int, int], ...]
    benchmarks: tuple[str, ...] = SWEEP_BENCHMARKS

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            (label, spec): versus_dm(spec, self.benchmarks, "data", scale, size, line)
            for label, size, line in self.points
            for spec in SWEEP_SPECS
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> SensitivityResult:
        pairs = self.pairs(scale)
        return SensitivityResult(
            axis=self.axis,
            points=tuple(
                SweepPoint(
                    label=label,
                    baseline_miss_rate=average_reduction(
                        [stats[dm].miss_rate for dm, _ in pairs[label, SWEEP_SPECS[0]]]
                    ),
                    reductions={
                        spec: mean_reduction(stats, pairs[label, spec])
                        for spec in SWEEP_SPECS
                    },
                )
                for label, _, _ in self.points
            ),
        )


def line_size_sweep(
    line_sizes: tuple[int, ...] = (16, 32, 64),
    size: int = 16 * 1024,
    benchmarks: tuple[str, ...] = SWEEP_BENCHMARKS,
) -> Sweep:
    """Sweep the line size at fixed capacity."""
    points = tuple((f"{line}B", size, line) for line in line_sizes)
    return Sweep("line size", points, benchmarks)


def cache_size_sweep(
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
    line_size: int = 32,
    benchmarks: tuple[str, ...] = SWEEP_BENCHMARKS,
) -> Sweep:
    """Sweep the capacity (sizes in kB) at fixed line size."""
    points = tuple((f"{kb}kB", kb * 1024, line_size) for kb in sizes)
    return Sweep("cache size", points, benchmarks)


SENSITIVITY = Composite(
    (line_size_sweep(), cache_size_sweep()),
    lambda line, size: Text(line.render() + "\n\n" + size.render()),
)
