"""Content-addressed store of completed job results.

Every job is a pure function of its :class:`~repro.engine.runner.SweepJob`
description — same spec, benchmark, side, trace length, seed, geometry
and policy in, same :class:`~repro.stats.counters.CacheStats` out, bit
for bit.  That makes completed results memoizable, and this module is
the one place they are persisted: the served result cache
(``bcache-serve --result-cache``, ``bcache-cluster --result-cache``)
and the run journal behind ``run_sweep(..., run_id=)`` are both a
:class:`ResultCache`, the latter rooted at ``<run_root>/<run_id>/``.

* **Keys** — :func:`job_hash` folds :meth:`SweepJob.key` (the one
  serialisation of a job's identity) together with the engine
  fingerprint into a 128-bit truncated SHA-256 — wide enough that
  accidental collisions stay out of reach even at birthday-paradox
  request volumes (see PAPERS.md).
* **Two tiers** — an in-process LRU of snapshots in front of a
  crash-safe disk tier: one CRC32-framed JSON file per entry, written
  atomically (temp file, optional fsync, ``os.replace``), quarantined
  on corruption instead of trusted.  Entries live under a directory
  named by the **engine fingerprint** (a hash of every
  simulation-relevant source file), so editing a kernel, a workload
  generator or a replacement policy silently invalidates every stale
  result — the store can never return statistics an older engine
  computed.

All methods of :class:`ResultCache` are synchronous and thread-safe;
event-loop callers must off-load ``get``/``put`` to an executor
(BCL011) or use the loop-safe :meth:`ResultCache.lookup_memory` fast
path, which is pure dict work.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.durable import atomic_write, quarantine
from repro.obs import events as obs_events
from repro.obs.events import cache_dir
from repro.obs.instrument import record
from repro.stats.counters import CacheStats

if TYPE_CHECKING:  # the job type is only ever asked for its key()
    from repro.engine.runner import SweepJob

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"

#: Hex digits kept from the SHA-256 job digest: 32 nibbles = 128 bits,
#: sized against birthday-paradox collision odds (PAPERS.md).
HASH_HEX_DIGITS = 32

#: Hex digits of the engine fingerprint used in directory names.
FINGERPRINT_HEX_DIGITS = 16

#: Source trees whose bytes define what a simulation computes; any
#: change to them must invalidate every stored snapshot.
_FINGERPRINT_ROOTS = (
    "caches",
    "core",
    "cpu",
    "hierarchy",
    "replacement",
    "stats",
    "trace",
    "workloads",
    "engine/runner.py",
    "engine/trace_store.py",
)


def job_hash(job: SweepJob, fingerprint: str = "") -> str:
    """128-bit content hash of (engine fingerprint, ``job.key()``)."""
    body = f"{fingerprint}\n{job.key()}"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:HASH_HEX_DIGITS]


@functools.lru_cache(maxsize=1)
def engine_fingerprint() -> str:
    """Hash of every simulation-relevant source file in this install.

    Walks the trees in ``_FINGERPRINT_ROOTS`` in sorted order and
    digests each file's package-relative path alongside its bytes, so
    renames invalidate too.  Cached per process — the sources cannot
    change under a running process in a way Python would notice anyway.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for root in _FINGERPRINT_ROOTS:
        target = package_root / root
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:FINGERPRINT_HEX_DIGITS]


def default_cache_root() -> Path:
    """``$REPRO_RESULT_CACHE`` or ``~/.cache/bcache-repro/results``."""
    return cache_dir(ENV_RESULT_CACHE, "results")


def encode_entry(job: SweepJob, snapshot: dict[str, Any]) -> str:
    """One disk entry: ``<crc32-hex> <canonical-json>\\n``."""
    body = json.dumps(
        {"key": job.key(), "stats": snapshot}, sort_keys=True, separators=(",", ":")
    )
    return f"{zlib.crc32(body.encode()):08x} {body}\n"


def decode_entry(raw: str) -> dict[str, Any] | None:
    """Decode one disk entry; ``None`` for torn or bit-rotted files."""
    head, sep, body = raw.rstrip("\n").partition(" ")
    if not sep or len(head) != 8:
        return None
    try:
        expected = int(head, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode()) != expected:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class ResultCache:
    """Two-tier (memory LRU + CRC-framed disk) store of job snapshots.

    Args:
        root: store root directory (default
            ``$REPRO_RESULT_CACHE`` or ``~/.cache/bcache-repro/results``);
            entries live under ``<root>/fp-<engine fingerprint>/``.
        capacity: in-process LRU entry budget.
        fingerprint: engine fingerprint override (tests); defaults to
            :func:`engine_fingerprint` over the live sources.
        fsync: flush disk entries to stable storage before the rename
            (disable only in tests, mirroring the trace store).

    Thread-safe; every public method may be called from executor
    threads.  Only :meth:`lookup_memory` is cheap enough for an event
    loop.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        capacity: int = 4096,
        fingerprint: str | None = None,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = fingerprint if fingerprint else engine_fingerprint()
        self.dir = self.root / f"fp-{self.fingerprint}"
        self.quarantine_root = self.root / "quarantine"
        self.capacity = max(1, capacity)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0

    # -- keys ----------------------------------------------------------
    def key(self, job: SweepJob) -> str:
        """The content hash this cache files ``job`` under."""
        return job_hash(job, self.fingerprint)

    def entry_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    # -- memory tier (event-loop safe) ---------------------------------
    def lookup_memory(self, key: str) -> dict[str, Any] | None:
        """Memory-tier probe: pure dict work, safe on an event loop."""
        with self._lock:
            snapshot = self._memory.get(key)
            if snapshot is None:
                return None
            self._memory.move_to_end(key)
            self.hits_memory += 1
        record("repro_resultcache_hits_total", tier="memory")
        return snapshot

    def _remember(self, key: str, snapshot: dict[str, Any]) -> None:
        with self._lock:
            self._memory[key] = snapshot
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                self.evictions += 1
                record("repro_resultcache_evictions_total")
            record("repro_resultcache_entries", len(self._memory))

    # -- full lookup (executor threads) --------------------------------
    def get(self, job: SweepJob) -> dict[str, Any] | None:
        """Snapshot for ``job``, or ``None`` on a miss.

        Checks the memory LRU first, then the disk tier; a disk hit is
        promoted into memory.  A corrupt disk entry is quarantined and
        reported as a miss (the caller recomputes), and an entry whose
        stored key disagrees with the probe (a 128-bit hash collision,
        i.e. never) is ignored rather than served.
        """
        key = self.key(job)
        snapshot = self.lookup_memory(key)
        if snapshot is not None:
            return snapshot
        entry = self._load_entry(key)
        if entry is not None and entry.get("key") == job.key():
            stats = entry.get("stats")
            if isinstance(stats, dict):
                with self._lock:
                    self.hits_disk += 1
                record("repro_resultcache_hits_total", tier="disk")
                self._remember(key, stats)
                return stats
        with self._lock:
            self.misses += 1
        record("repro_resultcache_misses_total")
        return None

    def get_stats(self, job: SweepJob) -> CacheStats | None:
        """:meth:`get` decoded to :class:`CacheStats`, or ``None``.

        An entry that passes its CRC but does not decode as a snapshot
        is quarantined like bit rot, so the caller re-runs the job.
        """
        snapshot = self.get(job)
        if snapshot is None:
            return None
        try:
            return CacheStats.from_snapshot(snapshot)
        except ValueError:
            key = self.key(job)
            with self._lock:
                self._memory.pop(key, None)
            self._quarantine(self.entry_path(key), "bad snapshot")
            return None

    def _load_entry(self, key: str) -> dict[str, Any] | None:
        path = self.entry_path(key)
        try:
            raw = path.read_text("utf-8")
        except OSError:
            return None
        entry = decode_entry(raw)
        if entry is None:
            self._quarantine(path, "crc mismatch")
        return entry

    def _quarantine(self, path: Path, reason: str) -> None:
        """Park a corrupt entry for forensics; the caller recomputes."""
        quarantine(path, self.quarantine_root)
        with self._lock:
            self.quarantined += 1
        record("repro_resultcache_quarantined_total")
        obs_events.emit("resultcache.quarantined", entry=path.name, reason=reason)

    # -- store ----------------------------------------------------------
    def put(self, job: SweepJob, snapshot: dict[str, Any]) -> bool:
        """File ``snapshot`` under ``job``'s content hash, both tiers.

        The disk write is atomic and (by default) durable: temp file,
        optional fsync, ``os.replace`` — racing writers of the same key
        converge on one intact entry because the snapshot is a pure
        function of the key.  Returns whether the entry reached disk:
        a serving cache that cannot persist is still a cache and may
        ignore ``False``, a run journal must not.
        """
        key = self.key(job)
        self._remember(key, snapshot)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            atomic_write(
                self.entry_path(key), encode_entry(job, snapshot).encode(), self.fsync
            )
        except OSError:
            return False
        with self._lock:
            self.stores += 1
        record("repro_resultcache_stores_total")
        return True

    # -- invalidation ---------------------------------------------------
    def prune_stale(self) -> int:
        """Delete entry directories written by older engine builds.

        Returns the number of stale fingerprint directories removed.
        Safe to call on every server start: the current fingerprint's
        directory and the quarantine area are never touched.
        """
        removed = 0
        try:
            children = list(self.root.iterdir())
        except OSError:
            return 0
        for child in children:
            if not child.is_dir() or not child.name.startswith("fp-"):
                continue
            if child == self.dir:
                continue
            shutil.rmtree(child, ignore_errors=True)
            removed += 1
        if removed:
            record("repro_resultcache_invalidations_total", removed)
            obs_events.emit("resultcache.invalidated", dirs=removed)
        return removed

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Counters for the server's ``status`` response."""
        with self._lock:
            return {
                "fingerprint": self.fingerprint,
                "entries_memory": len(self._memory),
                "capacity": self.capacity,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
            }

    @property
    def hits(self) -> int:
        with self._lock:
            return self.hits_memory + self.hits_disk
