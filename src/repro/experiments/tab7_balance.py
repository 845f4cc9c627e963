"""Table 7 — data-cache set-usage balance, baseline vs B-Cache.

Section 6.4's classification: frequent-hit sets (hits > 2x the per-set
average), frequent-miss sets (misses > 2x average) and less-accessed
sets (accesses < half the average).  The paper's findings, which the
assertions in ``benchmarks/test_tab7_balance.py`` check:

* the share of hits held by frequent-hit sets drops (57.2 % -> 39.8 %);
* frequent-miss sets shrink (5.6 % -> 2.2 % of sets) and the misses
  they absorb collapse (36.5 % -> 15.7 %);
* fewer sets are left idle (50.2 % -> 32.4 % less-accessed);
* art/lucas/swim/mcf have no frequent-miss sets — their misses are
  uniform, so no organisation helps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.common import ExperimentScale, Pair, Paired, Stats, versus_dm
from repro.experiments.reporting import format_table
from repro.stats.balance import BalanceReport, analyze_balance
from repro.workloads.spec2k import ALL_BENCHMARKS


@dataclass(frozen=True)
class BalanceRow:
    benchmark: str
    baseline: BalanceReport
    bcache: BalanceReport


@dataclass(frozen=True)
class Tab7Result:
    rows: tuple[BalanceRow, ...]

    def averages(self) -> tuple[BalanceReport, BalanceReport]:
        """Average the per-benchmark classifications (paper's Ave row)."""

        def mean_report(reports: list[BalanceReport]) -> BalanceReport:
            n = len(reports)
            return BalanceReport(
                frequent_hit_sets=sum(r.frequent_hit_sets for r in reports) / n,
                frequent_hit_share=sum(r.frequent_hit_share for r in reports) / n,
                frequent_miss_sets=sum(r.frequent_miss_sets for r in reports) / n,
                frequent_miss_share=sum(r.frequent_miss_share for r in reports) / n,
                less_accessed_sets=sum(r.less_accessed_sets for r in reports) / n,
                less_accessed_share=sum(r.less_accessed_share for r in reports) / n,
            )

        return (
            mean_report([row.baseline for row in self.rows]),
            mean_report([row.bcache for row in self.rows]),
        )

    def render(self) -> str:
        headers = (
            "benchmark", "org",
            "fhs%", "ch%", "fms%", "cm%", "las%", "tca%",
        )
        table_rows: list[list[object]] = []
        for row in self.rows:
            table_rows.append(
                [row.benchmark, "dm", *row.baseline.as_percent_row()]
            )
            table_rows.append(["", "bc", *row.bcache.as_percent_row()])
        base_ave, bc_ave = self.averages()
        table_rows.append(["Ave", "dm", *base_ave.as_percent_row()])
        table_rows.append(["", "bc", *bc_ave.as_percent_row()])
        return format_table(
            headers,
            table_rows,
            title=(
                "Table 7: D$ set-usage (fhs=frequent-hit sets, ch=their hits; "
                "fms=frequent-miss sets, cm=their misses; las=less-accessed "
                "sets, tca=their accesses)"
            ),
        )


@dataclass(frozen=True)
class Balance(Paired[Tab7Result]):
    """Table 7's per-set usage on baseline and B-Cache."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    bcache_spec: str = "mf8_bas8"

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            b: versus_dm(self.bcache_spec, (b,), "data", scale) for b in self.benchmarks
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> Tab7Result:
        return Tab7Result(
            rows=tuple(
                BalanceRow(
                    benchmark=benchmark,
                    baseline=analyze_balance(stats[dm]),
                    bcache=analyze_balance(stats[bcache]),
                )
                for benchmark, [(dm, bcache)] in self.pairs(scale).items()
            )
        )
