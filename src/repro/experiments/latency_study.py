"""Hit-latency comparison — the paper's central argument, quantified.

Section 2.1 / Section 7: every prior technique that reaches a
set-associative miss rate from a direct-mapped cache pays for it in
*hit latency* — a second probe (victim buffer, column-associative),
three-cycle relocated hits (adaptive group-associative), or
misprediction cycles (partial address matching, predictive sequential).
"The B-Cache requires only one cycle to access all cache hits."

This experiment runs every organisation over the benchmark suite and
reports, per organisation:

* average D$ miss-rate reduction;
* the fraction of hits that are slow (multi-cycle);
* the resulting *effective hit latency* in cycles;
* average memory access time, AMAT = eff_hit + miss_rate x penalty —
  the figure of merit that decides which design actually wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.common import (
    ExperimentScale,
    Pair,
    Paired,
    Stats,
    mean_reduction,
    versus_dm,
)
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction
from repro.workloads.spec2k import ALL_BENCHMARKS

#: Organisations compared; each records its own slow hits and their
#: extra cycles in ``CacheStats.slow_hits``/``slow_hit_cycles``.
LATENCY_SPECS = (
    "dm",
    "victim16",
    "column",
    "agac",
    "pam2",
    "psa2",
    "pagecolor",
    "mf8_bas8",
)

#: L1 miss penalty used for AMAT (L2 hit, Table 4).
MISS_PENALTY = 6.0


@dataclass(frozen=True)
class LatencyRow:
    spec: str
    reduction: float
    slow_hit_fraction: float
    effective_hit_latency: float
    amat: float


@dataclass(frozen=True)
class LatencyStudy:
    rows: tuple[LatencyRow, ...]

    def row(self, spec: str) -> LatencyRow:
        for row in self.rows:
            if row.spec == spec:
                return row
        raise KeyError(spec)

    def render(self) -> str:
        table_rows = [
            (
                row.spec,
                100.0 * row.reduction,
                100.0 * row.slow_hit_fraction,
                round(row.effective_hit_latency, 3),
                round(row.amat, 3),
            )
            for row in self.rows
        ]
        return format_table(
            ("config", "D$ red %", "slow hits %", "eff. hit cycles", "AMAT"),
            table_rows,
            title=(
                "Hit-latency study (Sections 2.1/7): miss-rate reduction vs "
                "the cycles it costs"
            ),
        )


@dataclass(frozen=True)
class Latency(Paired[LatencyStudy]):
    """Reduction, slow-hit fraction and AMAT per organisation."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    specs: tuple[str, ...] = LATENCY_SPECS

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            spec: versus_dm(spec, self.benchmarks, "data", scale) for spec in self.specs
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> LatencyStudy:
        rows = []
        for spec, pairs in self.pairs(scale).items():
            runs = [stats[job] for _, job in pairs]
            slow = [s.slow_hits / s.hits if s.hits else 0.0 for s in runs]
            extra = [
                s.slow_hit_cycles / s.slow_hits if s.slow_hits else 0.0 for s in runs
            ]
            effective = [1.0 + f * e for f, e in zip(slow, extra)]
            amats = [e + s.miss_rate * MISS_PENALTY for e, s in zip(effective, runs)]
            rows.append(
                LatencyRow(
                    spec=spec,
                    reduction=mean_reduction(stats, pairs),
                    slow_hit_fraction=average_reduction(slow),
                    effective_hit_latency=average_reduction(effective),
                    amat=average_reduction(amats),
                )
            )
        return LatencyStudy(rows=tuple(rows))
