"""Figures 4, 5 and 12 — miss-rate reductions over the baseline.

* Figure 4: data cache at 16 kB, reported as CINT2K and CFP2K panels.
* Figure 5: instruction cache at 16 kB for the fifteen benchmarks whose
  baseline I$ miss rate is significant.
* Figure 12: both caches at 8 kB and 32 kB, with the extra
  BAS = 4 design points.

All report *percentage miss-rate reduction over the direct-mapped
baseline* per benchmark, plus the arithmetic-mean "Ave" bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.caches.factory import FIGURE12_SPECS, FIGURE45_SPECS
from repro.experiments.ascii_chart import horizontal_bars
from repro.experiments.common import (
    Composite,
    ExperimentScale,
    Pair,
    Paired,
    Stats,
    reduction,
    versus_dm,
)
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction
from repro.workloads.spec2k import CFP2K, CINT2K, REPORTED_ICACHE


@dataclass(frozen=True)
class ReductionPanel:
    """One figure panel: benchmarks x configs, reductions in [0, 1]."""

    title: str
    side: str
    size: int
    specs: tuple[str, ...]
    benchmarks: tuple[str, ...]
    baseline_rates: dict[str, float]
    reductions: dict[str, dict[str, float]]  # spec -> benchmark -> reduction

    def average(self, spec: str) -> float:
        return average_reduction(
            [self.reductions[spec][b] for b in self.benchmarks]
        )

    def render(self) -> str:
        headers = ["benchmark", "DM miss%"] + list(self.specs)
        rows: list[list[object]] = []
        for benchmark in self.benchmarks:
            row: list[object] = [
                benchmark,
                100.0 * self.baseline_rates[benchmark],
            ]
            row.extend(
                100.0 * self.reductions[spec][benchmark] for spec in self.specs
            )
            rows.append(row)
        ave: list[object] = ["Ave", ""]
        ave.extend(100.0 * self.average(spec) for spec in self.specs)
        rows.append(ave)
        return format_table(headers, rows, title=self.title)

    def render_chart(self) -> str:
        """Bar chart of the per-config averages (the figure's Ave bars)."""
        return horizontal_bars(
            {spec: 100.0 * self.average(spec) for spec in self.specs},
            title=f"{self.title} — average reductions",
        )


@dataclass(frozen=True)
class Panel(Paired[ReductionPanel]):
    """One panel of miss-rate reductions over the direct-mapped baseline."""

    benchmarks: tuple[str, ...]
    side: str
    title: str = ""
    size: int = 16 * 1024
    specs: tuple[str, ...] = FIGURE45_SPECS

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            spec: versus_dm(spec, self.benchmarks, self.side, scale, self.size)
            for spec in self.specs
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> ReductionPanel:
        pairs = self.pairs(scale)
        return ReductionPanel(
            title=self.title
            or f"{self.side} cache {self.size // 1024}kB miss-rate reductions",
            side=self.side,
            size=self.size,
            specs=self.specs,
            benchmarks=self.benchmarks,
            baseline_rates={
                b: stats[dm].miss_rate
                for b, (dm, _) in zip(self.benchmarks, pairs[self.specs[0]])
            },
            reductions={
                spec: {b: reduction(stats, p) for b, p in zip(self.benchmarks, group)}
                for spec, group in pairs.items()
            },
        )


@dataclass(frozen=True)
class Fig4Result:
    cint: ReductionPanel
    cfp: ReductionPanel

    def render(self) -> str:
        return (
            self.cfp.render()
            + "\n\n"
            + self.cint.render()
            + "\n\n"
            + self.cfp.render_chart()
            + "\n\n"
            + self.cint.render_chart()
        )


#: Figure 4: D$ reductions at 16 kB, CFP2K and CINT2K panels.
FIG4 = Composite(
    (
        Panel(CINT2K, "data", "Figure 4 (bottom): SPEC CINT2K data cache, 16kB"),
        Panel(CFP2K, "data", "Figure 4 (top): SPEC CFP2K data cache, 16kB"),
    ),
    Fig4Result,
)

#: Figure 5: I$ reductions at 16 kB for the reported benchmarks.
FIG5 = Panel(REPORTED_ICACHE, "instr", "Figure 5: instruction cache, 16kB")


@dataclass(frozen=True)
class Fig12Result:
    panels: tuple[ReductionPanel, ...]  # 32kB D$, 32kB I$, 8kB D$, 8kB I$

    def render(self) -> str:
        headers = ["config", "32K D$", "32K I$", "8K D$", "8K I$"]
        specs = self.panels[0].specs
        rows = []
        for spec in specs:
            rows.append(
                [spec] + [100.0 * panel.average(spec) for panel in self.panels]
            )
        return format_table(
            headers, rows, title="Figure 12: average miss-rate reductions"
        )


#: Figure 12: average reductions at 32 kB and 8 kB, both caches, in the
#: paper's x-axis order (32K D$, 32K I$, 8K D$, 8K I$).
FIG12 = Composite(
    tuple(
        Panel(benchmarks, side, f"Figure 12: {label} {kb}kB", kb * 1024, FIGURE12_SPECS)
        for kb in (32, 8)
        for benchmarks, side, label in (
            (CINT2K + CFP2K, "data", "D$"),
            (REPORTED_ICACHE, "instr", "I$"),
        )
    ),
    lambda *panels: Fig12Result(panels=panels),
)
