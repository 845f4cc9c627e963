"""Analytic out-of-order processor timing model (Table 4 configuration).

The paper measures IPC on SimpleScalar's 4-issue out-of-order core with
a 16-entry instruction window (Table 4).  We model the same coupling
between L1 behaviour and IPC analytically:

``cycles = instructions * base_cpi
         + ifetch_stall_cycles * ifetch_exposure
         + data_stall_cycles  * data_exposure``

* ``base_cpi`` — CPI with a perfect L1, folding in issue width,
  functional-unit contention and branch effects (default 0.40, i.e.
  ideal IPC 2.5 on a 4-issue core).
* ``ifetch_exposure`` — instruction-miss latency is almost fully
  exposed: fetch stalls starve the window (1.0).
* ``data_exposure`` — the out-of-order window hides part of each data
  miss; with a 16-entry window a load miss overlaps ~40 % of its
  latency with useful work (0.6).

Stall cycles come from the trace-driven :class:`MemoryHierarchy`'s
batched replay, which sums each side's latency from per-level counts,
so L2 hits vs. memory accesses, dirty writebacks, the victim buffer's
extra-cycle hits and the column-associative cache's second probes are
all charged exactly as a per-access replay would charge them.  This is
the IPC coupling the paper's results depend on: the B-Cache gains IPC
purely by removing L1 conflict misses while keeping one-cycle hits
(Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, cast

from repro.hierarchy.memory_system import MemoryHierarchy
from repro.trace.access import Access, access_columns


@dataclass(frozen=True)
class ProcessorConfig:
    """Core parameters (paper Table 4) and latency-exposure factors."""

    issue_width: int = 4
    window_size: int = 16
    base_cpi: float = 0.40
    ifetch_exposure: float = 1.0
    data_exposure: float = 0.6

    def __post_init__(self) -> None:
        if self.issue_width < 1 or self.window_size < 1:
            raise ValueError("issue_width and window_size must be >= 1")
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if not 0.0 <= self.ifetch_exposure <= 1.0:
            raise ValueError("ifetch_exposure must be in [0, 1]")
        if not 0.0 <= self.data_exposure <= 1.0:
            raise ValueError("data_exposure must be in [0, 1]")


@dataclass
class ExecutionResult:
    """Outcome of simulating one workload on one cache configuration."""

    instructions: int
    cycles: float
    ifetch_stall_cycles: float
    data_stall_cycles: float
    l1i_miss_rate: float
    l1d_miss_rate: float
    l2_accesses: int
    l2_misses: int
    memory_accesses: int
    #: The hierarchy the run went through, for callers needing raw
    #: counters (energy activity, slow hits).
    hierarchy: MemoryHierarchy | None = field(default=None, compare=False, repr=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class OoOProcessorModel:
    """Trace-driven IPC estimation over a :class:`MemoryHierarchy`."""

    def __init__(self, hierarchy: MemoryHierarchy,
                 config: ProcessorConfig | None = None) -> None:
        self.hierarchy = hierarchy
        self.config = config or ProcessorConfig()

    def run(
        self,
        trace: Sequence[int] | Iterable[Access],
        kinds: Sequence[int] | None = None,
    ) -> ExecutionResult:
        """Execute a combined trace (each ifetch is one instruction).

        ``trace`` is the address column of a combined stream and
        ``kinds`` its :class:`~repro.trace.access.AccessType` column;
        without ``kinds``, ``trace`` is an iterable of :class:`Access`.
        """
        if kinds is None:
            addresses, kinds = access_columns(cast(Iterable[Access], trace))
        else:
            addresses = cast(Sequence[int], trace)
        hierarchy = self.hierarchy
        hit_latency = hierarchy.l1i.hit_latency
        latency = hierarchy.replay(addresses, kinds)
        instructions = latency.ifetches
        ifetch_stalls = float(latency.ifetch_cycles - hit_latency * instructions)
        data_stalls = float(latency.data_cycles - hit_latency * latency.data_accesses)
        config = self.config
        cycles = (
            instructions * config.base_cpi
            + ifetch_stalls * config.ifetch_exposure
            + data_stalls * config.data_exposure
        )
        stats = hierarchy.stats
        return ExecutionResult(
            instructions=instructions,
            cycles=cycles,
            ifetch_stall_cycles=ifetch_stalls * config.ifetch_exposure,
            data_stall_cycles=data_stalls * config.data_exposure,
            l1i_miss_rate=stats.l1i_miss_rate,
            l1d_miss_rate=stats.l1d_miss_rate,
            l2_accesses=stats.l2_accesses,
            l2_misses=stats.l2_misses,
            memory_accesses=stats.memory_accesses,
            hierarchy=hierarchy,
        )
