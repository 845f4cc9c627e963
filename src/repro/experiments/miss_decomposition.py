"""3C miss decomposition across organisations.

An ablation DESIGN.md calls out: the paper *claims* the B-Cache removes
conflict misses specifically (its title says so); this experiment
verifies the mechanism by decomposing every organisation's misses into
compulsory / capacity / conflict and showing that

* the baseline's miss pile on conflict-heavy benchmarks is mostly
  conflict;
* the B-Cache's remaining misses are mostly compulsory + capacity —
  the conflict bucket is what it removed;
* on uniform-miss benchmarks (mcf, art, ...) there is hardly any
  conflict bucket to remove, explaining why nothing helps there
  (Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches import make_cache
from repro.engine.trace_store import default_store
from repro.experiments.common import DEFAULT, ExperimentScale
from repro.experiments.reporting import format_table
from repro.stats.three_c import MissBreakdown, classify_misses
from repro.workloads.spec2k import ALL_BENCHMARKS

DECOMPOSITION_SPECS = ("dm", "2way", "8way", "mf8_bas8")


@dataclass(frozen=True)
class DecompositionResult:
    benchmarks: tuple[str, ...]
    specs: tuple[str, ...]
    breakdowns: dict[str, dict[str, MissBreakdown]]  # spec -> bench -> 3C

    def conflict_share(self, spec: str, benchmark: str) -> float:
        return self.breakdowns[spec][benchmark].fraction("conflict")

    def render(self) -> str:
        rows = []
        for benchmark in self.benchmarks:
            for spec in self.specs:
                b = self.breakdowns[spec][benchmark]
                rows.append(
                    (
                        benchmark if spec == self.specs[0] else "",
                        spec,
                        100.0 * b.miss_rate,
                        100.0 * b.fraction("compulsory"),
                        100.0 * b.fraction("capacity"),
                        100.0 * b.fraction("conflict"),
                    )
                )
        return format_table(
            ("benchmark", "config", "miss %", "compulsory %", "capacity %",
             "conflict %"),
            rows,
            title="3C miss decomposition (shares of each config's misses)",
        )


def run(
    scale: ExperimentScale = DEFAULT,
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
    specs: tuple[str, ...] = DECOMPOSITION_SPECS,
) -> DecompositionResult:
    breakdowns: dict[str, dict[str, MissBreakdown]] = {spec: {} for spec in specs}
    for benchmark in benchmarks:
        addresses = default_store().addresses(
            benchmark, "data", scale.data_n, scale.seed
        )
        caches = [make_cache(spec) for spec in specs]
        for spec, breakdown in zip(specs, classify_misses(caches, addresses)):
            breakdowns[spec][benchmark] = breakdown
    return DecompositionResult(
        benchmarks=tuple(benchmarks), specs=tuple(specs), breakdowns=breakdowns
    )
