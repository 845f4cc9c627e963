"""Zero-copy trace sharing over ``multiprocessing.shared_memory``.

The worker supervisor's processes (behind parallel sweeps and the
serve shards) replay the same traces in every worker process.  Before
this module existed each worker re-read (or worse, regenerated) its
blobs from disk; now the parent exports each distinct trace **once**
into a named shared-memory segment and ships only the segment *name*
across the process boundary.  Workers attach and hand out zero-copy
``memoryview`` columns that flow straight into the batch kernels.

Segment layout mirrors the store's columnar blobs:

* flavour ``adr`` — ``8 * count`` bytes of little-endian ``uint64``
  addresses;
* flavour ``acc`` — ``8 * count`` address bytes followed by ``count``
  ``uint8`` kind bytes.

No CRC footer is carried inside a segment: bytes are CRC-verified by
the :class:`~repro.engine.trace_store.TraceStore` at export time and a
segment never outlives its exporting process on the happy path.

Naming scheme: ``{prefix}-{pid}-{serial}-{digest}`` where ``pid`` is
the exporting process, ``serial`` is a per-registry counter and
``digest`` is a CRC32 of the trace key — unique per live registry,
recognisable in ``/dev/shm`` listings, and short enough for every
platform's name limit.

Ownership is explicit: the :class:`SharedTraceRegistry` that exported a
segment is its owner and the only place that may ``unlink`` it.
Workers only ever ``attach``/``close``.  Segments live as long as their
registry: :meth:`~SharedTraceRegistry.unlink_all` (also the
context-manager exit) unlinks everything — the drain/exit path that the
chaos harness asserts on with :func:`leaked_segments`.
"""

from __future__ import annotations

import logging
import os
import threading
import zlib
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

from repro.obs import instrument as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.trace_store import TraceStore

log = logging.getLogger("repro.engine.shm")

#: Default segment-name prefix (also what the leak scan greps for).
SEGMENT_PREFIX = "bcrepro"

#: Where POSIX shared memory appears as files (Linux).
SHM_DIR = "/dev/shm"

#: Manifest entry: trace key -> (segment name, reference count).
TraceKey = tuple[str, str, int, int, str]
Manifest = dict[TraceKey, tuple[str, int]]


def trace_key(
    benchmark: str, side: str, n: int, seed: int, with_kinds: bool
) -> TraceKey:
    """The store-compatible blob id of one trace flavour."""
    return (benchmark, side, n, seed, "acc" if with_kinds else "adr")


class SharedTraceRegistry:
    """Parent-side owner of exported trace segments.

    Thread-safe: supervisor threads export concurrently, and
    ``unlink_all`` may race a signal-driven drain.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX) -> None:
        self.prefix = prefix
        # Start the resource tracker *now*, before any worker forks:
        # children then share it, and their attach registrations dedupe
        # against the owner's create registration instead of spawning
        # per-worker trackers that would unlink live segments (and spam
        # leak warnings) when a worker exits.  Registries are always
        # constructed before the workers they feed, so this ordering holds.
        resource_tracker.ensure_running()
        # Heal leftovers of SIGKILLed owners before adding our own
        # segments (their names share the prefix we scan for).
        reap_stale_segments(prefix)
        self._lock = threading.Lock()
        self._serial = 0
        self._segments: dict[TraceKey, shared_memory.SharedMemory] = {}
        self._manifest: Manifest = {}
        # Segments whose close() failed because a view is still live;
        # kept referenced so their finalisers fire after the views die.
        self._zombies: list[shared_memory.SharedMemory] = []

    def _segment_name(self, key: TraceKey) -> str:
        digest = zlib.crc32("|".join(str(part) for part in key).encode())
        self._serial += 1
        return f"{self.prefix}-{os.getpid()}-{self._serial}-{digest:08x}"

    def export(
        self,
        store: "TraceStore",
        benchmark: str,
        side: str,
        n: int,
        seed: int,
        with_kinds: bool,
    ) -> tuple[str, int]:
        """Export one trace into a named segment (idempotent per key).

        Materialises the trace through ``store`` (CRC-verified, or
        regenerated and written there), copies its columns into a fresh
        segment, and returns ``(segment name, reference count)``.
        """
        key = trace_key(benchmark, side, n, seed, with_kinds)
        with self._lock:
            entry = self._manifest.get(key)
            if entry is not None:
                return entry
            if with_kinds:
                addresses, kinds = store.accesses(benchmark, side, n, seed)
                columns = [addresses.cast("B"), kinds.cast("B")]
            else:
                columns = [store.addresses(benchmark, side, n, seed).cast("B")]
            count = len(columns[0]) // 8
            size = 9 * count if with_kinds else 8 * count  # addresses, kinds
            name = self._segment_name(key)
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
            offset = 0
            for column in columns:
                segment.buf[offset:offset + len(column)] = column
                offset += len(column)
            self._segments[key] = segment
            self._manifest[key] = (name, count)
        _obs.shm_segment("export", name, size)
        return name, count

    def manifest(self) -> Manifest:
        """Picklable ``{trace key: (segment name, count)}`` snapshot."""
        with self._lock:
            return dict(self._manifest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def unlink_all(self) -> int:
        """Unlink every owned segment (drain/exit path).

        Idempotent and safe after partial failures: every segment gets
        a close+unlink attempt.
        """
        with self._lock:
            doomed = list(self._segments.values())
            self._segments.clear()
            self._manifest.clear()
        for segment in doomed:
            self._destroy(segment, segment.name)
        return len(doomed)

    def _destroy(self, segment: shared_memory.SharedMemory, name: str) -> None:
        size = segment.size
        try:
            segment.close()
        except BufferError:
            # A live memoryview pins the mapping; unlink still removes
            # the name so nothing leaks past process exit, and the
            # handle is parked so its finaliser fires after the view.
            self._zombies.append(segment)
            log.warning("segment %s still has exported views at close", name)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass  # already gone (racing unlink_all / external cleanup)
        _obs.shm_segment("unlink", name, size)

    def __enter__(self) -> "SharedTraceRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlink_all()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def reap_stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Unlink segments whose exporting process no longer exists.

    A SIGKILLed sweep cannot run its own unlink path — even the shared
    resource tracker dies with the process group — so the next engine
    start heals ``/dev/shm`` instead: every segment name embeds its
    owner pid, and any segment whose owner is gone is unlinked here.
    Segments of live owners are never touched, and a worker that raced
    an unlink falls back to disk transparently (the store treats a
    vanished segment as a miss).  Returns the reaped names.
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
        path = os.path.join(SHM_DIR, name)
        try:
            size = os.stat(path).st_size
            os.unlink(path)
        except OSError:
            continue  # racing reaper or owner came back — leave it
        log.warning("reaped stale segment %s (owner pid %d is gone)", name, pid)
        _obs.shm_segment("reap", name, size)
        reaped.append(name)
    return reaped


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of shared-memory segments with ``prefix`` still present.

    Scans :data:`SHM_DIR` (Linux); returns an empty list on platforms
    without it.  The chaos harness asserts this is empty after every
    run, including SIGTERM/SIGKILL worker deaths.
    """
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


def attach_views(
    name: str, count: int, with_kinds: bool
) -> tuple[shared_memory.SharedMemory, memoryview, memoryview | None]:
    """Attach to a segment and return zero-copy read-only columns.

    Returns ``(segment, addresses, kinds)`` — the segment handle must
    be kept alive as long as the views are in use (the store keeps it
    in ``_attached``).  Raises ``FileNotFoundError`` when the segment
    is gone (owner already unlinked); callers fall back to disk.
    """
    segment = shared_memory.SharedMemory(name=name, create=False)
    base = memoryview(segment.buf).toreadonly()
    addresses = base[: 8 * count].cast("Q")
    kinds = base[8 * count: 9 * count] if with_kinds else None
    _obs.shm_segment("attach", name, segment.size)
    return segment, addresses, kinds
