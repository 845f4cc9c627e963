"""Common cache interface shared by every organisation in the study.

All caches are byte-addressed, write-back, write-allocate, and operate
on whole cache blocks (the simulators are trace-driven miss-rate /
latency models, so block *contents* are never stored).  Concrete
subclasses implement :meth:`_access_block`; the base class handles
block-address extraction and statistics plumbing.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats
from repro.trace.access import Access, AccessType


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int, what: str) -> int:
    """Return log2 of ``value`` or raise if it is not a power of two."""
    if not _is_power_of_two(value):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of a single cache access.

    Attributes:
        hit: whether the reference hit in this cache.
        set_index: physical set (row) that resolved the access.
        evicted: block address evicted to make room, or None.
        evicted_dirty: whether the evicted block needed a writeback.
        pd_hit: for the B-Cache, whether the programmable decoder
            matched (always True for conventional caches — their fixed
            decoder always selects a set).
        extra_cycles: cycles a hit took beyond the one-cycle fast path
            (a victim-buffer swap-in, a second probe, ...); 0 for fast
            hits and for misses.
    """

    hit: bool
    set_index: int
    evicted: int | None = None
    evicted_dirty: bool = False
    pd_hit: bool = True
    extra_cycles: int = 0


#: Kinds of the references a batch replay sends to the level below: a
#: demand fill reads the block, a dirty writeback writes it.
DEMAND = int(AccessType.READ)
WRITEBACK = int(AccessType.WRITE)


class NextLevelStream:
    """The references one batch replay sends to the level below, in order.

    Entry ``i`` is the reference at batch position ``positions[i]``
    reaching the next level with byte address ``addresses[i]`` and kind
    ``kinds[i]``: the demand address of a miss (:data:`DEMAND`) or the
    dirty victim of an eviction, on a miss or on a relocating hit
    (:data:`WRITEBACK`).  A miss's demand precedes its writeback, so
    ``addresses``/``kinds`` are directly the next level's batch input.
    """

    __slots__ = ("positions", "addresses", "kinds")

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.addresses: list[int] = []
        self.kinds: list[int] = []

    def __len__(self) -> int:
        return len(self.positions)

    def emit(self, position: int, address: int, kind: int) -> None:
        """Append one next-level reference."""
        self.positions.append(position)
        self.addresses.append(address)
        self.kinds.append(kind)

    def recording(
        self,
        access: Callable[[int, bool], AccessResult],
        addresses: Sequence[int],
    ) -> Callable[[int, bool], AccessResult]:
        """``access`` (per block or per address) that also appends what
        each result sends below, for a batch over ``addresses`` driven
        one reference at a time: call ``i`` is the reference at
        position ``i``, with demand address ``addresses[i]``."""
        emit = self.emit
        positions = itertools.count()

        def recorded(key: int, is_write: bool) -> AccessResult:
            result = access(key, is_write)
            position = next(positions)
            if not result.hit:
                emit(position, addresses[position], DEMAND)
            if result.evicted is not None and result.evicted_dirty:
                emit(position, result.evicted, WRITEBACK)
            return result

        return recorded


class Cache(abc.ABC):
    """Abstract trace-driven cache model."""

    #: Whether some hits take extra cycles (``AccessResult.extra_cycles``).
    #: Organisations with a slow path set it next to the code that
    #: charges the cycles; the hierarchy keys its L2 batching on it.
    has_slow_hits = False

    def __init__(self, size: int, line_size: int, num_sets: int, name: str = "") -> None:
        self.size = size
        self.line_size = line_size
        self.offset_bits = log2_exact(line_size, "line_size")
        if size % line_size:
            raise ValueError(f"size {size} not a multiple of line_size {line_size}")
        self.num_blocks = size // line_size
        self.num_sets = num_sets
        self.name = name or type(self).__name__
        self.stats = CacheStats(num_sets=num_sets)
        #: Which kernel flavour the last access_trace batch ran on:
        #: "numpy" for the vectorised direct-mapped kernel, "stdlib" for
        #: every Python loop (whose columns may still come from numpy);
        #: telemetry-only, never affects stats.
        self.last_kernel = "stdlib"

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Reference ``address``; allocate on miss; update statistics."""
        block = address >> self.offset_bits
        result = self._access_block(block, is_write)
        self.stats.record(result.set_index, result.hit, is_write)
        if result.evicted is not None:
            self.stats.evictions += 1
            if result.evicted_dirty:
                self.stats.writebacks += 1
        if not result.hit:
            if result.pd_hit:
                self.stats.pd_hit_misses += 1
            else:
                self.stats.pd_miss_misses += 1
        elif result.extra_cycles:
            self.stats.slow_hits += 1
            self.stats.slow_hit_cycles += result.extra_cycles
        return result

    def run(self, trace: Iterable[Access]) -> CacheStats:
        """Run a whole trace through the cache; returns the stats object."""
        access = self.access
        for ref in trace:
            access(ref.address, ref.kind == 1)
        return self.stats

    def access_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None = None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Batch fast path: reference a whole address sequence at once.

        Produces statistics bit-identical to calling :meth:`access` per
        element, but drives the model through :meth:`_batch_trace`, a
        tight loop that accumulates counters in locals instead of
        allocating an :class:`AccessResult` per reference.

        Args:
            addresses: byte addresses, any sized sequence (``list``,
                ``tuple``, ``array('Q')``, ...).
            kinds: optional parallel sequence of access kinds using the
                :class:`~repro.trace.access.AccessType` encoding
                (``1`` = write, anything else is a non-writing access);
                ``None`` means every reference is a read.
            next_level: optional output; receives every reference this
                batch sends to the level below (see
                :class:`NextLevelStream`).

        Subclasses must override :meth:`_batch_trace`, never this
        dispatcher, so wrappers (e.g. the runtime sanitizer) can
        intercept every batch access at a single point.
        """
        if not hasattr(addresses, "__len__"):
            addresses = list(addresses)
        if kinds is not None:
            if not hasattr(kinds, "__len__"):
                kinds = list(kinds)
            if len(kinds) != len(addresses):
                raise ValueError(
                    f"kinds length {len(kinds)} does not match "
                    f"addresses length {len(addresses)}"
                )
        self.last_kernel = "stdlib"
        start = _obs.kernel_clock()
        stats = self._batch_trace(addresses, kinds, next_level)
        _obs.observe_kernel(self.name, len(addresses), start, self.last_kernel)
        return stats

    def contains(self, address: int) -> bool:
        """Non-mutating residency probe (no statistics side effects)."""
        return self._probe_block(address >> self.offset_bits)

    def flush(self) -> None:
        """Invalidate all contents and reset statistics."""
        self._flush_state()
        self.stats.reset()

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.name} size={self.size} line={self.line_size} "
            f"sets={self.num_sets} miss_rate={self.stats.miss_rate:.4f}>"
        )

    def _commit_batch(
        self,
        n: int,
        accesses_before: list[int] | None,
        misses_before: list[int] | None,
        misses: int,
        writes: int,
        evictions: int,
        writebacks: int,
        pd_miss: int = 0,
        slow_hits: int = 0,
        slow_hit_cycles: int = 0,
    ) -> CacheStats:
        """Flush a batch kernel's local counters into :attr:`stats`.

        For kernels whose loop bumps only the per-set access and miss
        counters (hits dominate): ``accesses_before``/``misses_before``
        are copies taken before the loop, and a set's hits are its
        access delta minus its miss delta.  That costs O(sets) per
        call, so kernels that may run as many short batches (an L2
        with slow hits replays one batch per same-source run) bump
        ``set_hits`` themselves and pass ``None``.  Misses not counted
        in ``pd_miss`` are PD hits, as a fixed decoder always selects
        a set.
        """
        stats = self.stats
        if accesses_before is not None and misses_before is not None:
            set_hits = stats.set_hits
            set_misses = stats.set_misses
            for set_index, accesses in enumerate(stats.set_accesses):
                delta = accesses - accesses_before[set_index]
                if delta:
                    set_hits[set_index] += delta - (
                        set_misses[set_index] - misses_before[set_index]
                    )
        stats.accesses += n
        stats.reads += n - writes
        stats.writes += writes
        stats.hits += n - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.pd_hit_misses += misses - pd_miss
        stats.pd_miss_misses += pd_miss
        stats.slow_hits += slow_hits
        stats.slow_hit_cycles += slow_hit_cycles
        return stats

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
        next_level: NextLevelStream | None = None,
    ) -> CacheStats:
        """Generic batch kernel: drive :meth:`_access_block` directly.

        Still pays one :class:`AccessResult` per reference (produced by
        the subclass), but skips the per-access wrapper and
        ``stats.record`` call.  Organisations with a hot inner loop
        override this with an allocation-free kernel; overrides must
        update statistics exactly like :meth:`access` does, and fill
        ``next_level`` exactly like :meth:`NextLevelStream.recording`.
        """
        stats = self.stats
        access_block = self._access_block
        if next_level is not None:
            access_block = next_level.recording(access_block, addresses)
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        misses = writes = evictions = writebacks = pd_miss = 0
        slow_hits = slow_hit_cycles = 0
        for address, kind in zip(addresses, kinds):
            is_write = kind == 1
            result = access_block(address >> offset_bits, is_write)
            set_index = result.set_index
            set_accesses[set_index] += 1
            if is_write:
                writes += 1
            if result.hit:
                set_hits[set_index] += 1
                if result.extra_cycles:
                    slow_hits += 1
                    slow_hit_cycles += result.extra_cycles
            else:
                misses += 1
                set_misses[set_index] += 1
                if not result.pd_hit:
                    pd_miss += 1
            if result.evicted is not None:
                evictions += 1
                if result.evicted_dirty:
                    writebacks += 1
        return self._commit_batch(
            n,
            None,
            None,
            misses,
            writes,
            evictions,
            writebacks,
            pd_miss=pd_miss,
            slow_hits=slow_hits,
            slow_hit_cycles=slow_hit_cycles,
        )

    @abc.abstractmethod
    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        """Resolve one block reference, mutating cache state."""

    @abc.abstractmethod
    def _probe_block(self, block: int) -> bool:
        """Return residency of ``block`` without mutating anything."""

    @abc.abstractmethod
    def _flush_state(self) -> None:
        """Drop all cached blocks."""
