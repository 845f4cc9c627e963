"""Leak scan and dead-owner reaping for ``bcrepro-*`` shared-memory names.

The engine no longer puts traces in shared memory: a worker reads its
trace from the CRC-checked disk store like a serial run.  These two
helpers stay because the repository benchmark's run sandbox
(``bench/sandbox.py``, ``bench/tests/test_sandbox.py``) imports them,
and the serve and chaos gates still assert that no process of the
program leaves a ``bcrepro-*`` segment behind.
"""

from __future__ import annotations

import logging
import os

log = logging.getLogger("repro.engine.shm")

#: Segment-name prefix the leak scan greps for.
SEGMENT_PREFIX = "bcrepro"

#: Where POSIX shared memory appears as files (Linux).
SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def reap_stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Unlink segments whose owning process no longer exists.

    A segment name ``{prefix}-{pid}-{serial}-{digest}`` embeds its
    owner's pid; any such segment whose owner is gone is unlinked.
    Segments of live owners and names without a pid are never
    touched.  Returns the reaped names.
    """
    reaped: list[str] = []
    for name in leaked_segments(prefix):
        parts = name.split("-")
        try:
            pid = int(parts[-3])  # {prefix}-{pid}-{serial}-{digest}
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            continue  # racing reaper or owner came back — leave it
        log.warning("reaped stale segment %s (owner pid %d is gone)", name, pid)
        reaped.append(name)
    return reaped


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of shared-memory segments with ``prefix`` still present.

    Scans :data:`SHM_DIR` (Linux); returns an empty list on platforms
    without it.
    """
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))
