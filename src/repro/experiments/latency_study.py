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

from repro.experiments.common import DEFAULT, ExperimentScale, sweep_stats
from repro.experiments.reporting import format_table
from repro.stats.summary import average_reduction, miss_rate_reduction
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


def run(
    scale: ExperimentScale = DEFAULT,
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
    specs: tuple[str, ...] = LATENCY_SPECS,
    jobs: int | None = None,
    run_id: str | None = None,
) -> LatencyStudy:
    """Measure reduction, slow-hit fraction and AMAT per organisation."""
    results = sweep_stats(
        tuple(dict.fromkeys(("dm",) + specs)), benchmarks, "data", scale,
        jobs=jobs, run_id=run_id,
    )
    rows = []
    for spec in specs:
        reductions = []
        slow_fractions = []
        eff_latencies = []
        amats = []
        for benchmark in benchmarks:
            stats = results[(spec, benchmark)]
            miss = stats.miss_rate
            reductions.append(
                miss_rate_reduction(results[("dm", benchmark)].miss_rate, miss)
            )
            slow_fraction = stats.slow_hits / stats.hits if stats.hits else 0.0
            extra = (
                stats.slow_hit_cycles / stats.slow_hits if stats.slow_hits else 0.0
            )
            slow_fractions.append(slow_fraction)
            effective = 1.0 + slow_fraction * extra
            eff_latencies.append(effective)
            amats.append(effective + miss * MISS_PENALTY)
        rows.append(
            LatencyRow(
                spec=spec,
                reduction=average_reduction(reductions),
                slow_hit_fraction=average_reduction(slow_fractions),
                effective_hit_latency=average_reduction(eff_latencies),
                amat=average_reduction(amats),
            )
        )
    return LatencyStudy(rows=tuple(rows))
