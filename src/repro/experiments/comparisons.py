"""Section 6.6 / 6.7 / 7.1 comparisons and the replacement ablation.

* Victim buffer (Section 6.6) — covered inside the Figure 4/5/12
  panels; here we also expose the direct B-Cache-vs-buffer deltas.
* Highly associative cache (Section 6.7) — the HAC reaches similar
  miss rates but needs a 26-bit CAM against the B-Cache's 6 bits.
* Column-associative and skewed-associative caches (Section 7.1) —
  prior art the B-Cache should match or beat while keeping one-cycle
  hits.
* Replacement ablation (Section 3.3) — LRU vs random (the paper's two
  policies) plus FIFO/PLRU extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.caches.hac import HighlyAssociativeCache
from repro.core.config import BCacheGeometry
from repro.experiments.common import (
    Composite,
    ExperimentScale,
    Pair,
    Paired,
    Stats,
    mean_reduction,
    versus_dm,
)
from repro.experiments.reporting import format_table
from repro.workloads.spec2k import ALL_BENCHMARKS


@dataclass(frozen=True)
class ComparisonResult:
    """Average miss-rate reduction of several organisations (D$ and I$)."""

    title: str
    specs: tuple[str, ...]
    data_reduction: dict[str, float]
    instr_reduction: dict[str, float]

    def render(self) -> str:
        rows = [
            (
                spec,
                100.0 * self.data_reduction[spec],
                100.0 * self.instr_reduction[spec],
            )
            for spec in self.specs
        ]
        return format_table(
            ("config", "D$ red %", "I$ red %"), rows, title=self.title
        )


@dataclass(frozen=True)
class Comparison(Paired[ComparisonResult]):
    """Average reductions of ``specs`` over the suite (both cache sides)."""

    title: str
    specs: tuple[str, ...]
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            (spec, side): versus_dm(spec, self.benchmarks, side, scale)
            for spec in self.specs
            for side in ("data", "instr")
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> ComparisonResult:
        red = {key: mean_reduction(stats, g) for key, g in self.pairs(scale).items()}
        return ComparisonResult(
            self.title,
            self.specs,
            {spec: red[spec, "data"] for spec in self.specs},
            {spec: red[spec, "instr"] for spec in self.specs},
        )


#: Prior-art comparison of Section 7.1 (plus the victim buffer of 6.6).
PRIOR_ART_SPECS = ("victim16", "column", "skew2", "2way", "4way", "mf8_bas8")
PRIOR_ART = Comparison("Section 7.1 prior art comparison", PRIOR_ART_SPECS)


@dataclass(frozen=True)
class HACResult:
    """Section 6.7: HAC vs B-Cache — miss rate similar, CAM width 26 vs 6."""

    comparison: ComparisonResult
    hac_cam_bits: int
    bcache_pd_bits: int

    def render(self) -> str:
        return (
            self.comparison.render()
            + f"\nCAM width: HAC {self.hac_cam_bits} bits vs "
            f"B-Cache PD {self.bcache_pd_bits} bits"
        )


def _hac(comparison: ComparisonResult) -> HACResult:
    return HACResult(
        comparison=comparison,
        hac_cam_bits=HighlyAssociativeCache(16 * 1024).cam_entry_bits,
        bcache_pd_bits=BCacheGeometry(16 * 1024, 32, 8, 8).pi_bits,
    )


HAC = Composite(
    (Comparison("Section 6.7: HAC vs B-Cache", ("hac", "mf8_bas8", "32way")),), _hac
)


@dataclass(frozen=True)
class ReplacementAblation:
    """Section 3.3: the B-Cache under different replacement policies."""

    policies: tuple[str, ...]
    data_reduction: dict[str, float]

    def render(self) -> str:
        rows = [
            (policy, 100.0 * self.data_reduction[policy])
            for policy in self.policies
        ]
        return format_table(
            ("policy", "avg D$ red %"),
            rows,
            title="Replacement-policy ablation (B-Cache MF=8 BAS=8)",
        )


@dataclass(frozen=True)
class VictimSweep:
    """Section 6.6's sizing claim: 'A victim buffer with more than 16
    entries may not bring significant miss rate reduction.'"""

    entries: tuple[int, ...]
    data_reduction: dict[int, float]

    def render(self) -> str:
        rows = [
            (f"victim{n}", 100.0 * self.data_reduction[n]) for n in self.entries
        ]
        return format_table(
            ("buffer", "avg D$ red %"),
            rows,
            title="Victim-buffer size sweep (Section 6.6)",
        )

    def marginal_gain(self, from_entries: int, to_entries: int) -> float:
        return self.data_reduction[to_entries] - self.data_reduction[from_entries]


@dataclass(frozen=True)
class VictimSizes(Paired[VictimSweep]):
    """Sweep the victim-buffer entry count."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    entries: tuple[int, ...] = (4, 8, 16, 32, 64)

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            n: versus_dm(f"victim{n}", self.benchmarks, "data", scale)
            for n in self.entries
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> VictimSweep:
        return VictimSweep(
            self.entries,
            {n: mean_reduction(stats, g) for n, g in self.pairs(scale).items()},
        )


@dataclass(frozen=True)
class Replacement(Paired[ReplacementAblation]):
    """The B-Cache (MF=8, BAS=8) under each replacement policy."""

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    policies: tuple[str, ...] = ("lru", "random", "fifo", "plru")

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        return {
            p: versus_dm("mf8_bas8", self.benchmarks, "data", scale, policy=p)
            for p in self.policies
        }

    def result(self, scale: ExperimentScale, stats: Stats) -> ReplacementAblation:
        return ReplacementAblation(
            self.policies,
            {p: mean_reduction(stats, g) for p, g in self.pairs(scale).items()},
        )
