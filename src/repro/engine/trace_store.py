"""On-disk trace store: materialise each synthetic trace exactly once.

Every figure/table reproduction replays the same 26 synthetic SPEC2K
traces through many cache organisations.  The previous memoisation
(``functools.lru_cache`` over tuples of ints) was per-process only —
worker processes regenerated every trace from scratch and FULL-scale
tuples (1 M ints x 26 benchmarks) pinned gigabytes of interpreter
objects.

This store keeps traces on disk as compact little-endian ``uint64``
blobs (8 bytes per reference instead of a ~28-byte ``int`` object each)
keyed by ``(benchmark, side, n, seed)``, each followed by a 4-byte
little-endian CRC32 footer.  Two stream flavours exist:

* **address streams** (:meth:`TraceStore.addresses`) — the raw address
  sequence the experiment harness replays (reads only), sides ``data``
  and ``instr``;
* **access streams** (:meth:`TraceStore.accesses`) — addresses plus a
  parallel ``uint8`` kind blob (read/write/ifetch), sides ``data``,
  ``instr`` and ``combined`` — what ``bcache-sim`` replays.

Writes are atomic *and durable* (temp file + ``fsync`` +
``os.replace``) so concurrent worker processes can safely race to
materialise the same trace and a power loss cannot leave a live path
pointing at garbage; the loser's write simply replaces the winner's
identical bytes.  Blobs whose CRC footer does not match are moved to
``<root>/quarantine/`` and transparently regenerated from the
deterministic seed — corruption costs one regeneration, never a crash.
A small in-process LRU keeps the hot handful of traces in memory.

The default root is ``$REPRO_TRACE_STORE`` or
``~/.cache/bcache-repro/traces``.
"""

from __future__ import annotations

import logging
import time
import zlib
from array import array
from collections import OrderedDict
from pathlib import Path

from repro.engine.durable import atomic_write, quarantine
from repro.obs import instrument as _obs
from repro.obs.events import cache_dir
from repro.trace.access import access_columns
from repro.workloads.spec2k import get_profile

log = logging.getLogger("repro.engine.trace_store")

#: File suffixes: raw little-endian uint64 addresses / uint8 kinds
#: (each blob carries a trailing 4-byte little-endian CRC32 footer).
ADDRESS_SUFFIX = ".addr.u64"
KIND_SUFFIX = ".kind.u8"

#: Bytes of CRC32 footer appended to every blob.
CRC_BYTES = 4

#: Directory (under the store root) where corrupt blobs are parked.
QUARANTINE_DIR = "quarantine"

#: Sides with a raw-address fast path (reads only, experiment harness).
ADDRESS_SIDES = ("data", "instr")

#: Sides with a full access stream (addresses + kinds, ``bcache-sim``).
ACCESS_SIDES = ("data", "instr", "combined")

ENV_ROOT = "REPRO_TRACE_STORE"

#: Store key of one trace: ``(benchmark, side, n, seed, flavour)``,
#: flavour ``adr`` (addresses) or ``acc`` (addresses + kinds).
Key = tuple[str, str, int, int, str]


def default_root() -> Path:
    """Store root: ``$REPRO_TRACE_STORE`` or ``~/.cache/bcache-repro/traces``."""
    return cache_dir(ENV_ROOT, "traces")


def _frame(payload: bytes) -> bytes:
    """Append the CRC32 footer that makes bit rot detectable on load."""
    return payload + zlib.crc32(payload).to_bytes(CRC_BYTES, "little")


def _unframe(data: bytes) -> bytes | None:
    """Strip and verify the CRC32 footer; ``None`` if the blob is corrupt."""
    if len(data) < CRC_BYTES:
        return None
    payload, footer = data[:-CRC_BYTES], data[-CRC_BYTES:]
    if zlib.crc32(payload) != int.from_bytes(footer, "little"):
        return None
    return payload


def _payload_size(count: int) -> int:
    """On-disk size of a framed blob holding ``count`` payload bytes."""
    return count + CRC_BYTES


def _readonly(value: array | tuple[array, array]) -> object:
    """Cached trace columns as read-only typed ``memoryview`` objects
    (format ``Q``/``B`` preserved; pairs wrap element-wise)."""
    if isinstance(value, tuple):
        return tuple(memoryview(item).toreadonly() for item in value)
    return memoryview(value).toreadonly()


class TraceStoreError(ValueError):
    """Raised for unknown sides or malformed store requests."""


class TraceStore:
    """Disk-backed, memory-bounded cache of synthetic benchmark traces.

    Args:
        root: directory for the blobs (created on demand); defaults to
            :func:`default_root`.
        memory_entries: number of decoded traces kept in the in-process
            LRU (a FULL-scale entry is ~8 MB as ``array('Q')``).
        fsync: flush blob bytes to stable storage before the atomic
            rename (durable across power loss).  ``fsync=False`` is the
            escape hatch for tests and throwaway stores.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        memory_entries: int = 16,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.memory_entries = max(1, memory_entries)
        self.fsync = fsync
        self._memory: OrderedDict[Key, array | tuple[array, array]] = OrderedDict()
        self.disk_hits = 0
        self.disk_misses = 0
        self.quarantined = 0

    # -- paths ---------------------------------------------------------
    def _stem(self, benchmark: str, side: str, n: int, seed: int, kinds: bool) -> str:
        flavour = "acc" if kinds else "adr"
        return f"{benchmark}_{side}_{flavour}_n{n}_s{seed}"

    def address_path(
        self, benchmark: str, side: str, n: int, seed: int, kinds: bool = False
    ) -> Path:
        return self.root / (self._stem(benchmark, side, n, seed, kinds) + ADDRESS_SUFFIX)

    def kind_path(self, benchmark: str, side: str, n: int, seed: int) -> Path:
        return self.root / (self._stem(benchmark, side, n, seed, True) + KIND_SUFFIX)

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- verified blob IO ----------------------------------------------
    def _write(self, path: Path, payload: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(path, _frame(payload), fsync=self.fsync)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Park a corrupt blob under ``quarantine/`` for forensics.

        The store never raises on corruption: the caller regenerates
        the trace from its deterministic seed and the damaged bytes are
        kept aside instead of silently overwritten.
        """
        quarantine(path, self.quarantine_root)
        self.quarantined += 1
        _obs.trace_store_quarantined(path.name, reason)
        log.warning("quarantined corrupt trace blob %s (%s)", path.name, reason)

    def _load_payload(self, path: Path, expected_size: int | None = None) -> bytes | None:
        """Read and CRC-verify one blob; ``None`` means regenerate.

        Missing files regenerate silently.  Present files that are the
        wrong size (truncated writes, stale pre-CRC layouts) or fail
        their checksum (bit rot) are quarantined and regenerated from
        the deterministic seed — never raised to the caller.
        """
        if not path.is_file():
            return None
        data = path.read_bytes()
        if expected_size is not None and len(data) != expected_size:
            self._quarantine(path, f"size {len(data)} != expected {expected_size}")
            return None
        payload = _unframe(data)
        if payload is None:
            self._quarantine(path, "CRC32 mismatch")
            return None
        return payload

    # -- tiers: memory LRU -> disk -> regenerate -----------------------
    @staticmethod
    def _key(benchmark: str, side: str, n: int, seed: int, kinds: bool) -> Key:
        sides = ACCESS_SIDES if kinds else ADDRESS_SIDES
        if side not in sides:
            stream = "access" if kinds else "address"
            raise TraceStoreError(
                f"{stream} streams support sides {sides}, got {side!r}"
            )
        return (benchmark, side, n, seed, "acc" if kinds else "adr")

    def _get(self, key: Key) -> object:
        """The trace as **read-only** ``memoryview`` columns.

        The LRU keeps the mutable backing objects private: a caller
        mutating what it was handed cannot corrupt the trace every
        later caller sees.
        """
        memory = self._memory
        value = memory.get(key)
        if value is None:
            value = self._materialise(key)
            memory[key] = value
            while len(memory) > self.memory_entries:
                memory.popitem(last=False)
        else:
            memory.move_to_end(key)
            _obs.trace_store_hit("memory", key[0])
        return _readonly(value)

    def _materialise(self, key: Key) -> array | tuple[array, array]:
        """Load the trace from disk (CRC-verified), else generate it."""
        benchmark, side, n, seed, flavour = key
        value: array | tuple[array, array] | None
        if flavour == "acc":
            value = self._read_access_pair(benchmark, side, n, seed)
        else:
            payload = self._load_payload(
                self.address_path(benchmark, side, n, seed),
                expected_size=_payload_size(8 * n),
            )
            value = None if payload is None else array("Q", payload)
        if value is not None:
            self.disk_hits += 1
            _obs.trace_store_hit("disk", benchmark)
            return value
        self.disk_misses += 1
        started = time.monotonic()
        if flavour == "acc":
            value = self._generate_accesses(benchmark, side, n, seed)
        else:
            value = self._generate_addresses(benchmark, side, n, seed)
        _obs.trace_store_miss(benchmark, time.monotonic() - started)
        return value

    def clear_memory(self) -> None:
        """Drop the in-process LRU (disk blobs stay)."""
        self._memory.clear()

    def wipe(self) -> int:
        """Delete every blob under the root (quarantine included);
        returns the count of live blobs removed."""
        self.clear_memory()
        removed = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if path.suffix in (".u64", ".u8"):
                    path.unlink(missing_ok=True)
                    removed += 1
        parked = self.quarantine_root
        if parked.is_dir():
            for path in parked.iterdir():
                path.unlink(missing_ok=True)
            parked.rmdir()
        return removed

    # -- address streams (experiment harness; reads only) --------------
    def addresses(self, benchmark: str, side: str, n: int, seed: int) -> memoryview:
        """The first ``n`` addresses of one reference stream as a
        read-only ``uint64`` ``memoryview`` (zero-copy columnar)."""
        return self._get(self._key(benchmark, side, n, seed, False))  # type: ignore[return-value]

    def _generate_addresses(self, benchmark: str, side: str, n: int, seed: int) -> array:
        profile = get_profile(benchmark)
        raw = (
            profile.data_addresses(n, seed)
            if side == "data"
            else profile.instr_addresses(n, seed)
        )
        blob = array("Q", raw)
        self._write(self.address_path(benchmark, side, n, seed), blob.tobytes())
        return blob

    # -- access streams (addresses + kinds) ----------------------------
    def accesses(
        self, benchmark: str, side: str, n: int, seed: int
    ) -> tuple[memoryview, memoryview]:
        """One full access stream as read-only ``(uint64 addresses,
        uint8 kinds)`` ``memoryview`` columns.

        For sides ``data``/``instr`` the length is exactly ``n``; for
        ``combined`` it is the number of references generated by ``n``
        instructions (one ifetch each plus a data access for a fraction
        of them), recovered from the blob size.
        """
        return self._get(self._key(benchmark, side, n, seed, True))  # type: ignore[return-value]

    def _read_access_pair(
        self, benchmark: str, side: str, n: int, seed: int
    ) -> tuple[array, array] | None:
        addr_path = self.address_path(benchmark, side, n, seed, kinds=True)
        kind_path = self.kind_path(benchmark, side, n, seed)
        if not (addr_path.is_file() and kind_path.is_file()):
            return None
        kind_payload = self._load_payload(kind_path)
        if kind_payload is None:
            return None
        count = len(kind_payload)
        if side != "combined" and count != n:
            self._quarantine(kind_path, f"kind count {count} != expected {n}")
            return None
        addr_payload = self._load_payload(
            addr_path, expected_size=_payload_size(8 * count)
        )
        if addr_payload is None:
            return None
        return array("Q", addr_payload), array("B", kind_payload)

    def _generate_accesses(
        self, benchmark: str, side: str, n: int, seed: int
    ) -> tuple[array, array]:
        profile = get_profile(benchmark)
        if side == "data":
            stream = profile.data_trace(n, seed)
        elif side == "instr":
            stream = profile.instruction_trace(n, seed)
        else:
            stream = profile.combined_trace(n, seed)
        addresses, kinds = access_columns(stream)
        self._write(
            self.address_path(benchmark, side, n, seed, kinds=True),
            addresses.tobytes(),
        )
        self._write(self.kind_path(benchmark, side, n, seed), kinds.tobytes())
        return addresses, kinds

    # -- bulk materialisation ------------------------------------------
    def ensure(
        self, benchmark: str, side: str, n: int, seed: int, kinds: bool = False
    ) -> Path:
        """Materialise one trace on disk without retaining it in memory.

        Reads and CRC-checks the blob (or generates it); returns the
        address-blob path.
        """
        self._materialise(self._key(benchmark, side, n, seed, kinds))
        return self.address_path(benchmark, side, n, seed, kinds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceStore root={self.root} memory={len(self._memory)}/"
            f"{self.memory_entries} disk_hits={self.disk_hits} "
            f"disk_misses={self.disk_misses} quarantined={self.quarantined}>"
        )


# ----------------------------------------------------------------------
# Process-wide default store (supervisor workers point it at the
# parent's root when they start).
# ----------------------------------------------------------------------
_DEFAULT: TraceStore | None = None


def default_store() -> TraceStore:
    """The process-wide store, created on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TraceStore()
    return _DEFAULT


def set_default_store(store: TraceStore | None) -> TraceStore | None:
    """Replace the process-wide store; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = store
    return previous
