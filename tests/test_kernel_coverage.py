"""No paper experiment reaches the generic batch kernel.

``Cache._batch_trace`` is the fallback that drives ``_access_block``
and allocates one ``AccessResult`` per reference.  Every organisation
the L1 experiments run has its own kernel (compiled, or an
allocation-free loop for agac and pagecolor), and the 3C reference is
an LRU pass rather than a ``FullyAssociativeCache`` replay; this runs
each L1 experiment at a micro scale with both fallbacks made to fail.
Every compiled organisation reaches the generic kernel on a host with
no C compiler (see :mod:`repro.caches.native`), so only there is the
test skipped.
"""

from __future__ import annotations

import pytest

from bench.catalog import L1_EXPERIMENTS
from repro.caches import native
from repro.caches.base import Cache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.cli import EXPERIMENTS
from repro.experiments import ExperimentScale
from repro.experiments.common import RunOptions
from test_engine_equivalence import real_kernels  # noqa: F401 - fixture re-export

#: Small enough for every experiment to run in well under a second
#: of kernel time; its own seed keeps its traces apart from other tests'.
MICRO = ExperimentScale(data_n=400, instr_n=400, instructions=400, seed=4242)


@pytest.mark.parametrize("name", L1_EXPERIMENTS)
def test_l1_experiment_never_reaches_generic_kernel(name, real_kernels, monkeypatch):
    if native.load() is None:
        pytest.skip("no C compiler: batches replay through the generic kernel")

    def generic_kernel(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} ran the generic batch kernel")

    def fully_associative(self, *args, **kwargs):
        raise AssertionError("an experiment built a FullyAssociativeCache")

    monkeypatch.setattr(Cache, "_batch_trace", generic_kernel)
    monkeypatch.setattr(FullyAssociativeCache, "__init__", fully_associative)
    table = EXPERIMENTS[name](MICRO, RunOptions(jobs=1))
    assert table.strip()
