"""Experiment harnesses: one module per paper figure/table."""

from repro.experiments.common import (
    DEFAULT,
    FULL,
    SMOKE,
    ExperimentScale,
    RunOptions,
    clear_trace_caches,
    execute,
    miss_rate,
    run_side,
    run_system,
)

__all__ = [
    "DEFAULT",
    "ExperimentScale",
    "FULL",
    "RunOptions",
    "SMOKE",
    "clear_trace_caches",
    "execute",
    "miss_rate",
    "run_side",
    "run_system",
]
