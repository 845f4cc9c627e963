"""Tables 5 and 6 — MF x BAS design tradeoff for a fixed PD length.

Section 6.3: for a given PD length (``log2(MF) + log2(BAS)`` bits) two
designs compete — A maximises clusters (high BAS), B maximises the
mapping factor (high MF).  The paper finds B wins below PD = 6 (its
lower PD hit rate frees the replacement policy) while A wins at PD = 6
(both PD hit rates are low, so cluster count dominates) — which is why
the headline design is MF = 8, BAS = 8.

Table 5 reports the miss-rate reduction and Table 6 the PD hit rate
during misses, each averaged over the benchmark suite, for
MF in {2,4,8,16} x BAS in {4,8}.
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

MF_VALUES = (2, 4, 8, 16)
BAS_VALUES = (4, 8)


@dataclass(frozen=True)
class TradeoffCell:
    mapping_factor: int
    associativity: int
    pd_bits: int
    reduction: float
    pd_hit_rate: float


@dataclass(frozen=True)
class Tab56Result:
    cells: tuple[TradeoffCell, ...]

    def cell(self, mf: int, bas: int) -> TradeoffCell:
        for cell in self.cells:
            if cell.mapping_factor == mf and cell.associativity == bas:
                return cell
        raise KeyError((mf, bas))

    def render(self) -> str:
        header = ["BAS \\ MF"] + [f"MF={mf}" for mf in MF_VALUES]
        red_rows = []
        pd_rows = []
        for bas in BAS_VALUES:
            red_rows.append(
                [f"BAS={bas}"]
                + [100.0 * self.cell(mf, bas).reduction for mf in MF_VALUES]
            )
            pd_rows.append(
                [f"BAS={bas}"]
                + [100.0 * self.cell(mf, bas).pd_hit_rate for mf in MF_VALUES]
            )
        pd_len_rows = [
            [f"BAS={bas}"] + [self.cell(mf, bas).pd_bits for mf in MF_VALUES]
            for bas in BAS_VALUES
        ]
        return (
            format_table(header, red_rows, title="Table 5: % miss-rate reduction")
            + "\n\n"
            + format_table(header, pd_rows, title="Table 6: PD hit rate during misses (%)")
            + "\n\n"
            + format_table(header, pd_len_rows, title="PD length (bits) per design point")
        )


@dataclass(frozen=True)
class Tradeoff(Paired[Tab56Result]):
    """The Table 5/6 grid on the data cache."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            (mf, bas): versus_dm(f"mf{mf}_bas{bas}", self.benchmarks, "data", scale)
            for bas in BAS_VALUES
            for mf in MF_VALUES
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> Tab56Result:
        return Tab56Result(
            cells=tuple(
                TradeoffCell(
                    mapping_factor=mf,
                    associativity=bas,
                    pd_bits=(mf.bit_length() - 1) + (bas.bit_length() - 1),
                    reduction=mean_reduction(stats, pairs),
                    pd_hit_rate=average_reduction(
                        [stats[job].pd_hit_rate_during_miss for _, job in pairs]
                    ),
                )
                for (mf, bas), pairs in self.pairs(scale).items()
            )
        )
