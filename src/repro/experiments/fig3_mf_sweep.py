"""Figure 3 — wupwise D$ miss rate and PD hit rate vs mapping factor.

The paper sweeps MF from 2 to 512 at BAS = 8 on wupwise's data cache
and observes: the PD hit rate during misses stays high (the colliding
addresses share the PD's low tag bits) until the PD grows enough tag
bits to tell them apart, at which point both the PD hit rate and the
miss rate drop sharply (between MF = 32 and MF = 64 in the paper —
regions 2^19 apart need a 6-tag-bit PD).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.runner import SweepJob
from repro.experiments.common import Experiment, ExperimentScale, Stats, l1_job
from repro.experiments.reporting import format_table

MF_SWEEP = (2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class MFSweepPoint:
    mapping_factor: int
    miss_rate: float
    pd_hit_rate_during_miss: float


@dataclass(frozen=True)
class Fig3Result:
    benchmark: str
    points: tuple[MFSweepPoint, ...]

    def render(self) -> str:
        rows = [
            (
                f"MF{p.mapping_factor}",
                100.0 * p.miss_rate,
                100.0 * p.pd_hit_rate_during_miss,
            )
            for p in self.points
        ]
        return format_table(
            ("config", "D$ miss rate %", "PD hit rate during miss %"),
            rows,
            title=f"Figure 3: {self.benchmark} 16kB D$, BAS=8",
        )

    def miss_rates(self) -> list[float]:
        return [p.miss_rate for p in self.points]

    def pd_hit_rates(self) -> list[float]:
        return [p.pd_hit_rate_during_miss for p in self.points]


@dataclass(frozen=True)
class MFSweep(Experiment[Fig3Result]):
    """The MF sweep of Figure 3 at BAS = 8 on one benchmark's D$."""

    benchmark: str = "wupwise"
    mapping_factors: tuple[int, ...] = MF_SWEEP

    def jobs(self, scale: ExperimentScale) -> tuple[SweepJob, ...]:
        return tuple(
            l1_job(f"mf{mf}_bas8", self.benchmark, "data", scale)
            for mf in self.mapping_factors
        )

    def result(self, scale: ExperimentScale, stats: Stats) -> Fig3Result:
        points = tuple(
            MFSweepPoint(mf, stats[job].miss_rate, stats[job].pd_hit_rate_during_miss)
            for mf, job in zip(self.mapping_factors, self.jobs(scale))
        )
        return Fig3Result(benchmark=self.benchmark, points=points)
