"""Atomic writes and quarantine moves for the two on-disk stores.

The trace store (:mod:`repro.engine.trace_store`) and the result store
(:mod:`repro.engine.results`) keep different CRC-framed formats but
write and discard files the same way: a file is written to a
per-process temp name, optionally flushed to stable storage, and
renamed into place; a file that fails its check is moved aside for
forensics, never trusted and never raised to the caller.
"""

from __future__ import annotations

import os
from pathlib import Path


def temp_path(path: Path) -> Path:
    """The per-process temp file ``path`` is written to before its rename."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def atomic_write(path: Path, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically, and durably with ``fsync``.

    Racing writers of the same bytes converge on one intact file
    (``os.replace``); with ``fsync`` the bytes reach stable storage
    before the rename, so a power loss cannot leave ``path`` naming a
    half-written file.  ``fsync=False`` is for tests and throwaway
    stores.
    """
    tmp = temp_path(path)
    with open(tmp, "wb") as handle:
        handle.write(data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def quarantine(path: Path, root: Path) -> None:
    """Move a corrupt ``path`` into the directory ``root``.

    A racing process may already have moved or replaced it; the stale
    name is then just removed, since the caller rebuilds the file
    either way.
    """
    try:
        root.mkdir(parents=True, exist_ok=True)
        os.replace(path, root / path.name)
    except OSError:
        path.unlink(missing_ok=True)
