"""Shared infrastructure for the per-figure/per-table experiments.

Traces are deterministic (seeded) and materialised once per machine by
the on-disk :mod:`repro.engine.trace_store`, whose in-memory LRU keeps
the hot handful of decoded columnar blobs (as read-only ``uint64``
views) so repeated sweeps stay allocation-free.  Each L1 experiment is
an :class:`Experiment`: the sweep jobs it reads and the result it builds
from their stats.  :func:`execute` runs the jobs of any number of
experiments through :func:`repro.engine.runner.run_sweep`, each distinct
job once, and every job runs :func:`~repro.engine.runner.execute_job` —
which is what makes ``jobs > 1`` sweeps bit-identical to serial ones.
:func:`run_system` reads the stored
combined ``(addresses, kinds)`` columns and replays them through the
hierarchy's batched path.

Scale presets control trace lengths: the paper simulates 500 M
instructions per benchmark; synthetic workloads reach stable miss
rates far sooner.  ``SMOKE`` keeps the benchmark suite fast, ``DEFAULT``
is the scale used for EXPERIMENTS.md, ``FULL`` for final runs.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any, Generic, Protocol, TypeVar, cast

from repro.caches import make_cache
from repro.cpu.timing import ExecutionResult, OoOProcessorModel, ProcessorConfig
from repro.engine.runner import SweepJob, execute_job, run_sweep
from repro.engine.trace_store import default_store
from repro.hierarchy.memory_system import MemoryHierarchy
from repro.stats.counters import CacheStats
from repro.stats.summary import average_reduction, miss_rate_reduction


@dataclass(frozen=True)
class ExperimentScale:
    """Trace lengths for one experiment run."""

    data_n: int = 200_000
    instr_n: int = 200_000
    instructions: int = 120_000
    seed: int = 2006  # ISCA 2006

    def scaled(self, factor: float) -> "ExperimentScale":
        return ExperimentScale(
            data_n=max(1000, int(self.data_n * factor)),
            instr_n=max(1000, int(self.instr_n * factor)),
            instructions=max(1000, int(self.instructions * factor)),
            seed=self.seed,
        )

    def side_n(self, side: str) -> int:
        """Trace length for one side (``data`` or ``instr``)."""
        if side == "data":
            return self.data_n
        if side == "instr":
            return self.instr_n
        raise ValueError(f"side must be 'data' or 'instr', got {side!r}")


SMOKE = ExperimentScale(data_n=20_000, instr_n=30_000, instructions=15_000)
DEFAULT = ExperimentScale()
FULL = ExperimentScale(data_n=1_000_000, instr_n=1_000_000, instructions=500_000)


def l1_job(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
) -> SweepJob:
    """The job that runs one benchmark's I- or D-stream through one cache
    config."""
    return SweepJob(
        spec=spec,
        benchmark=benchmark,
        side=side,
        n=scale.side_n(side),
        seed=scale.seed,
        size=size,
        line_size=line_size,
        policy=policy,
    )


def run_side(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
) -> CacheStats:
    """Run one benchmark's I- or D-stream through one cache config."""
    return execute_job(
        l1_job(spec, benchmark, side, scale, size, line_size, policy)
    )


class Renderable(Protocol):
    def render(self) -> str: ...


R = TypeVar("R", bound=Renderable)

#: The stats of finished jobs, as :meth:`Experiment.result` reads them.
Stats = Mapping[SweepJob, CacheStats]


@dataclass(frozen=True)
class RunOptions:
    """Engine options of one invocation.

    ``jobs`` is the worker count (``None``: ``$REPRO_JOBS`` or serial).
    ``run_id`` journals every job the invocation runs under that one id,
    so a rerun with the same id resumes bit-identically after a kill.
    """

    jobs: int | None = None
    run_id: str | None = None


class Experiment(Generic[R]):
    """One figure or table, split into the jobs it reads and the result
    it builds from their stats.

    Subclasses are frozen dataclasses that hold the experiment's
    parameters.  :meth:`result` may read exactly the jobs that
    :meth:`jobs` returns; :func:`execute` runs them.
    """

    def jobs(self, scale: ExperimentScale) -> tuple[SweepJob, ...]:
        return ()

    def result(self, scale: ExperimentScale, stats: Stats) -> R:
        raise NotImplementedError

    def run(
        self, scale: ExperimentScale = DEFAULT, opts: RunOptions = RunOptions()
    ) -> R:
        """Execute this experiment on its own; returns its result."""
        return cast(R, next(execute((self,), scale, opts)))

    def __call__(self, scale: ExperimentScale, opts: RunOptions = RunOptions()) -> str:
        """Execute this experiment on its own; returns its table."""
        return self.run(scale, opts).render()


@dataclass(frozen=True)
class Composite(Experiment[R]):
    """An experiment made of parts; ``combine`` joins their results."""

    parts: tuple[Experiment[Any], ...]
    combine: Callable[..., R]

    def jobs(self, scale: ExperimentScale) -> tuple[SweepJob, ...]:
        return tuple(job for part in self.parts for job in part.jobs(scale))

    def result(self, scale: ExperimentScale, stats: Stats) -> R:
        return self.combine(*(part.result(scale, stats) for part in self.parts))


def _trace_order(job: SweepJob) -> tuple[str, str, int, int]:
    return (job.benchmark, job.side, job.n, job.seed)


def execute(
    experiments: Sequence[Experiment[Any]],
    scale: ExperimentScale,
    opts: RunOptions = RunOptions(),
) -> Iterator[Any]:
    """Run the experiments' jobs, each distinct job once; yields their
    results in order.

    A :class:`Composite` runs part by part, any other experiment as one
    part.  The jobs of a part that are not held yet run through one
    :func:`run_sweep` call, sorted by trace so the trace store's
    in-memory LRU stays warm.  The part's result reads a mapping of
    exactly its declared jobs.  A result a later part reads is held
    pickled (its per-set counters shrink to a few bytes per set) and
    dropped once the last part that reads it has built its result.
    """
    groups = [
        experiment.parts if isinstance(experiment, Composite) else (experiment,)
        for experiment in experiments
    ]
    readers = Counter(
        job for group in groups for part in group for job in set(part.jobs(scale))
    )
    held: dict[SweepJob, bytes] = {}
    for experiment, group in zip(experiments, groups):
        results: list[Any] = []
        for part in group:
            plan = tuple(dict.fromkeys(part.jobs(scale)))
            todo = sorted((job for job in plan if job not in held), key=_trace_order)
            stats = {job: pickle.loads(held[job]) for job in plan if job in held}
            if todo:
                stats.update(
                    zip(todo, run_sweep(todo, workers=opts.jobs, run_id=opts.run_id))
                )
            results.append(part.result(scale, stats))
            readers.subtract(plan)
            for job in plan:
                if not readers[job]:
                    held.pop(job, None)
                elif job not in held:
                    held[job] = pickle.dumps(stats[job])
        if isinstance(experiment, Composite):
            yield experiment.combine(*results)
        else:
            yield results[0]


Pair = tuple[SweepJob, SweepJob]


def versus_dm(
    spec: str,
    benchmarks: Sequence[str],
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
) -> list[Pair]:
    """One ``(dm baseline, spec)`` job pair per benchmark, same geometry."""
    return [
        (
            l1_job("dm", b, side, scale, size, line_size),
            l1_job(spec, b, side, scale, size, line_size, policy),
        )
        for b in benchmarks
    ]


class Paired(Experiment[R]):
    """An experiment whose jobs are groups of ``(dm baseline, variant)``
    pairs (see :func:`versus_dm`)."""

    def pairs(self, scale: ExperimentScale) -> dict[Any, list[Pair]]:
        raise NotImplementedError

    def jobs(self, scale: ExperimentScale) -> tuple[SweepJob, ...]:
        groups = self.pairs(scale).values()
        return tuple(job for group in groups for pair in group for job in pair)


def reduction(stats: Stats, pair: Pair) -> float:
    """Miss-rate reduction of a ``(baseline, job)`` pair."""
    base, job = pair
    return miss_rate_reduction(stats[base].miss_rate, stats[job].miss_rate)


def mean_reduction(stats: Stats, pairs: Iterable[Pair]) -> float:
    """Mean miss-rate reduction of each ``(baseline, job)`` pair."""
    return average_reduction([reduction(stats, pair) for pair in pairs])


@dataclass(frozen=True)
class Text:
    """A result that is already rendered."""

    text: str

    def render(self) -> str:
        return self.text


def miss_rate(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
) -> float:
    """Miss rate of one (config, benchmark, side) run."""
    return run_side(spec, benchmark, side, scale, size=size).miss_rate


def run_system(
    spec: str,
    benchmark: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    config: ProcessorConfig | None = None,
) -> ExecutionResult:
    """Run the full processor + hierarchy model with ``spec`` L1 caches."""
    addresses, kinds = default_store().accesses(
        benchmark, "combined", scale.instructions, scale.seed
    )
    hierarchy = MemoryHierarchy(
        l1i=make_cache(spec, size=size),
        l1d=make_cache(spec, size=size),
    )
    return OoOProcessorModel(hierarchy, config).run(addresses, kinds)


def clear_trace_caches() -> None:
    """Drop the trace store's in-memory traces (frees memory between
    large sweeps).

    Disk blobs are untouched — the next request decodes them again.
    """
    default_store().clear_memory()
