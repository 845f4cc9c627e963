"""Columnar inputs for the compiled batch kernels.

The batch kernels in :mod:`repro.caches` operate on flat integer
columns: the ``array('Q')``/``memoryview`` address blob handed out by
the trace store flows straight into ``_batch_trace`` with no per-access
object materialised anywhere between disk and kernel.
:mod:`repro.caches.native` converts any other input to a contiguous
uint64 address column and uint8 kind column through the numpy helpers
here.

Importing numpy costs a process about 14 MB of resident memory and
0.2 s (2-vCPU x86-64 host, numpy 2.4), so the kernel modules import
this one on their first batch: a process that replays no batch, such
as the gateway or the serve front end while its shard workers are up,
never loads numpy.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def get_numpy() -> Any:
    """The numpy module; kept as an accessor for callers outside the
    package (the benchmark's environment record reads its version)."""
    return np


def address_column(addresses: Sequence[int]) -> Any:
    """``addresses`` as a uint64 ndarray.

    Buffers are read by their item type: an ``array('Q')`` or its
    ``memoryview`` is shared without a copy, a narrower buffer
    (``array('I')``, ``array('H')``) and a list are converted by value.
    """
    return np.asarray(addresses, dtype=np.uint64)


def kind_column(kinds: Sequence[int]) -> Any:
    """``kinds`` as a uint8 ndarray: a 1-byte buffer (``bytes``,
    ``array('B')``, their ``memoryview``) without a copy, anything
    else converted by value."""
    try:
        view = memoryview(kinds)  # type: ignore[arg-type]
    except TypeError:
        return np.asarray(kinds, dtype=np.uint8)
    if view.itemsize == 1:
        return np.frombuffer(view, dtype=np.uint8)
    return np.asarray(view, dtype=np.uint8)
