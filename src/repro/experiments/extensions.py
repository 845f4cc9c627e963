"""Extension studies beyond the paper's tables.

* ``run_addressing`` — Section 6.8: which PD input bits a
  virtually-indexed/physically-tagged implementation must treat as
  virtual index, across cache sizes and page sizes.
* ``Drowsy`` — Section 6.4's closing claim: less-accessed sets
  survive balancing, so drowsy leakage techniques still pay off on the
  B-Cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.addressing import AddressingReport, analyze_addressing
from repro.core.config import BCacheGeometry
from repro.energy.drowsy import DrowsyReport, estimate_drowsy_leakage
from repro.engine.runner import SweepJob
from repro.experiments.common import ExperimentScale, Pair, Paired, Stats, versus_dm
from repro.experiments.reporting import format_table
from repro.workloads.spec2k import ALL_BENCHMARKS


@dataclass(frozen=True)
class AddressingStudy:
    reports: tuple[AddressingReport, ...]

    def render(self) -> str:
        rows = []
        for report in self.reports:
            geometry = report.geometry
            rows.append(
                (
                    f"{geometry.size // 1024}kB MF={geometry.mapping_factor}",
                    f"{report.page_size // 1024}kB",
                    len(report.untranslated_tag_bits),
                    "yes" if report.vp_compatible_without_care else "no",
                )
            )
        return format_table(
            ("design", "page", "virtual-index tag bits", "V/P as-is"),
            rows,
            title="Section 6.8: virtually/physically tagged compatibility",
        )


def run_addressing(
    sizes: tuple[int, ...] = (8 * 1024, 16 * 1024, 32 * 1024),
    page_sizes: tuple[int, ...] = (4096, 65536),
) -> AddressingStudy:
    reports = []
    for size in sizes:
        for page_size in page_sizes:
            geometry = BCacheGeometry(size, 32, mapping_factor=8, associativity=8)
            reports.append(analyze_addressing(geometry, page_size))
    return AddressingStudy(reports=tuple(reports))


@dataclass(frozen=True)
class DrowsyStudy:
    rows: tuple[tuple[str, DrowsyReport, DrowsyReport], ...]

    def render(self) -> str:
        table_rows = []
        for benchmark, dm, bc in self.rows:
            table_rows.append(
                (
                    benchmark,
                    100.0 * dm.leakage_saving,
                    100.0 * bc.leakage_saving,
                )
            )
        dm_ave = sum(r[1] for r in table_rows) / len(table_rows)
        bc_ave = sum(r[2] for r in table_rows) / len(table_rows)
        table_rows.append(("Ave", dm_ave, bc_ave))
        return format_table(
            ("benchmark", "DM leakage saving %", "B-Cache leakage saving %"),
            table_rows,
            title=(
                "Section 6.4 extension: drowsy leakage savings survive "
                "the B-Cache's balancing"
            ),
        )


@dataclass(frozen=True)
class Drowsy(Paired[DrowsyStudy]):
    """Drowsy leakage savings of the baseline and the B-Cache D$."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    decay_window: int = 2000

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {b: versus_dm("mf8_bas8", (b,), "data", scale) for b in self.benchmarks}

    def result(self, scale: ExperimentScale, stats: Stats) -> DrowsyStudy:
        def leakage(job: SweepJob) -> DrowsyReport:
            return estimate_drowsy_leakage(stats[job], self.decay_window)

        return DrowsyStudy(
            rows=tuple(
                (benchmark, leakage(dm), leakage(bcache))
                for benchmark, [(dm, bcache)] in self.pairs(scale).items()
            )
        )
