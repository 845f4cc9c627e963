"""Compiled batch kernels (``kernels.c``), built on first use.

:func:`load` compiles the source with ``cc -O3 -shared -fPIC`` into
``$XDG_CACHE_HOME/bcache-repro/native/<key>.so``, keyed by the sha256
of the source, the flags and the platform tag, and loads it with
``ctypes``.  The build writes a temporary file and renames it into
place, so processes building at once each load a whole library.  With
no ``cc`` on ``PATH``, an unwritable cache directory or a failed build
it logs once and returns ``None``, and every organisation replays
through the per-access ``Cache._batch_trace``.  Like
:mod:`repro.caches.columnar`, this module is imported per batch: a
process that replays no batch never loads ``ctypes`` or the library.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from array import array
from operator import add, sub
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.caches import columnar
from repro.obs.events import cache_dir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caches.base import Cache, NextLevelStream

log = logging.getLogger("repro.caches.native")

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O3", "-shared", "-fPIC")
KERNELS = (
    "set_associative", "bcache", "victim_buffer", "column_associative",
    "skewed_associative",
)

#: The kernels' ``out`` counters (the C enum).
CLOCK, MISSES, WRITES, EVICTIONS, WRITEBACKS, PD_MISSES = range(6)
SLOW_HITS, SLOW_HIT_CYCLES, EMITTED, PROGRAMS, TOUCHED, COUNTERS = range(6, 12)

_UNSET: Any = object()
_library: Any = _UNSET


def library_path() -> Path:
    """Where the compiled kernels live, keyed by source, flags and platform."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(f"{' '.join(FLAGS)} {platform.system()}-{platform.machine()}".encode())
    return cache_dir(None, "native") / f"{key.hexdigest()}.so"


def load() -> ctypes.CDLL | None:
    """The compiled kernels, built on first use in this process, or
    ``None`` (logged once) when they cannot be built or loaded."""
    global _library
    if _library is _UNSET:
        try:
            _library = _open(library_path())
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            log.warning("compiled kernels unavailable, batches replay "
                        "per access: %s", exc)
            _library = None
    return _library


def _open(path: Path) -> ctypes.CDLL:
    if path.exists():
        with contextlib.suppress(OSError, AttributeError):
            return _declare(ctypes.CDLL(str(path)))
        # Truncated or otherwise unloadable: rebuild over it.
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, built = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        build = subprocess.run([compiler, *FLAGS, "-o", built, str(SOURCE)],
                               capture_output=True, text=True, timeout=120)
        if build.returncode:
            raise OSError(f"cc exited {build.returncode}: {build.stderr.strip()}")
        os.replace(built, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(built)
    return _declare(ctypes.CDLL(str(path)))


def _declare(library: ctypes.CDLL) -> ctypes.CDLL:
    for name in KERNELS:
        getattr(library, name).argtypes = [ctypes.c_void_p]
        getattr(library, name).restype = None
    return library


def _address(column: Any) -> int:
    """Where a writable column (``array``, ``bytearray``) starts; 0 for None."""
    if column is None:
        return 0
    if isinstance(column, array):
        return int(column.buffer_info()[0])
    return ctypes.addressof(ctypes.c_char.from_buffer(column))


def _input(values: Sequence[int], typecode: str, convert: Any) -> tuple[Any, int]:
    """A batch input as a contiguous column and its address: an ``array``
    of ``typecode`` as is, a list copied into one (faster than numpy),
    anything else through ``convert`` (a :mod:`columnar` helper)."""
    if isinstance(values, array) and values.typecode == typecode:
        return values, values.buffer_info()[0]
    if isinstance(values, list):
        column = array(typecode, values)
        return column, column.buffer_info()[0]
    converted = np.ascontiguousarray(convert(values))
    return converted, converted.__array_interface__["data"][0]


def replay(
    cache: "Cache",
    kernel: str,
    args: tuple[Any, ...],
    addresses: Sequence[int],
    kinds: Sequence[int] | None,
    next_level: "NextLevelStream | None",
    clock: int = 0,
) -> list[int] | None:
    """Run one batch through compiled ``kernel``; ``None`` without them.

    ``args`` are the kernel's own arguments: integers and the cache's
    state columns (updated in place) or ``None``; ``clock`` is the
    kernel's clock going in, ``counters[CLOCK]`` coming out.  Commits
    the counters to ``cache.stats`` and the references sent below to
    ``next_level``; returns the counters.
    """
    library = load()
    if library is None:
        return None
    n = len(addresses)
    # The input columns stay referenced until the call returns.
    column, column_address = _input(addresses, "Q", columnar.address_column)
    kind_column, kinds_address = (
        (None, 0) if kinds is None else _input(kinds, "B", columnar.kind_column)
    )
    num_sets = cache.num_sets
    out = array("q", bytes(8 * (COUNTERS + 3 * num_sets)))
    out[CLOCK] = clock
    streams: Any = (None, None, None)
    if next_level is not None:
        streams = (array("q", bytes(16 * n)), array("Q", bytes(16 * n)),
                   array("B", bytes(2 * n)))
    argument = array("q", [
        column_address, kinds_address, n, _address(out), num_sets,
        *map(_address, streams),
        *[arg if type(arg) is int else _address(arg) for arg in args],
    ])
    getattr(library, kernel)(argument.buffer_info()[0])
    counters = out[:COUNTERS].tolist()
    stats = cache.stats
    misses_at = COUNTERS + num_sets
    touched = counters[TOUCHED]
    if 4 * touched > num_sets:
        # Most sets touched: one C-level pass over each column.
        accesses, misses = out[COUNTERS:misses_at], out[misses_at:misses_at + num_sets]
        stats.set_accesses[:] = map(add, stats.set_accesses, accesses)
        stats.set_hits[:] = map(add, stats.set_hits, map(sub, accesses, misses))
        stats.set_misses[:] = map(add, stats.set_misses, misses)
    else:
        for index in out[misses_at + num_sets:misses_at + num_sets + touched]:
            accessed, missed = out[COUNTERS + index], out[misses_at + index]
            stats.set_accesses[index] += accessed
            stats.set_hits[index] += accessed - missed
            stats.set_misses[index] += missed
    cache._commit_batch(
        n, counters[MISSES], counters[WRITES], counters[EVICTIONS],
        counters[WRITEBACKS], pd_miss=counters[PD_MISSES],
        slow_hits=counters[SLOW_HITS], slow_hit_cycles=counters[SLOW_HIT_CYCLES],
    )
    if next_level is not None:
        for entries, values in zip(
            (next_level.positions, next_level.addresses, next_level.kinds), streams
        ):
            entries.extend(values[:counters[EMITTED]].tolist())
    cache.last_kernel = "native"
    return counters
