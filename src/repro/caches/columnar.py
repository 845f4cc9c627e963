"""Columnar helpers for the batch replay kernels.

The batch kernels in :mod:`repro.caches` operate on flat integer
columns: the ``array('Q')``/``memoryview`` address blob handed out by
the trace store flows straight into ``_batch_trace`` with no per-access
object materialised anywhere between disk and kernel.  This module adds
the optional **numpy fast path** on top of that representation:

* :func:`dm_batch` — a fully vectorised direct-mapped kernel
  (tag/index extraction, hit detection via a stable per-set sort,
  writeback algebra over residency segments, ``np.bincount`` per-set
  counters) that is bit-identical to the scalar replay;
* :func:`index_tag_columns` / :func:`row_pi_tag_columns` — column
  preparation for the set-associative and B-Cache kernels, whose
  replacement-policy state is inherently sequential: the address math
  and the static per-set access counters vectorise, the policy loop
  stays in pure Python.

The pure-stdlib path remains canonical: numpy is probed once per
process (:func:`get_numpy`), ``REPRO_NUMPY=off`` disables it, and every
vectorised kernel falls back to the stdlib loop whenever one of its
preconditions (sequence length, set count, address width) does not
hold.  Equivalence across all factory specs is property-tested in
``tests/test_columnar_kernels.py``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caches.direct_mapped import DirectMappedCache

#: Environment switch: any of these values disables the numpy path.
ENV_NUMPY = "REPRO_NUMPY"
_OFF_VALUES = frozenset({"0", "off", "no", "false"})

#: Below this batch length the vectorisation setup costs more than the
#: stdlib loop saves.
MIN_VECTOR_LEN = 1024

#: The stable argsort is radix sort for 1- and 2-byte keys (fast) but
#: comparison sort for wider ones (slow); set indices are therefore
#: packed into uint16, which bounds the vectorised path to 2**16 sets.
MAX_VECTOR_SETS = 1 << 16

#: Tag sentinel for an invalid (empty) set in the vectorised kernel.
#: Safe because the kernel refuses addresses at or above 2**63: every
#: real tag is then strictly below the all-ones pattern.
_INVALID = (1 << 64) - 1

_numpy: Any = None
_numpy_probed = False


def _probe_numpy() -> Any:
    """Import numpy and sanity-check the operations the kernels rely on."""
    try:
        import numpy
    except ImportError:
        return None
    try:
        probe = numpy.frombuffer(
            (123).to_bytes(8, "little"), dtype=numpy.dtype("<u8")
        )
        if int(probe[0]) != 123:
            return None
        numpy.argsort(numpy.zeros(2, dtype=numpy.uint16), kind="stable")
        numpy.bincount(numpy.zeros(2, dtype=numpy.intp), minlength=4)
    except Exception:
        return None
    return numpy


def get_numpy() -> Any:
    """The numpy module, or ``None`` (absent, broken, or disabled).

    The import is probed once per process; the ``REPRO_NUMPY``
    environment gate is consulted on every call so tests can exercise
    both kernel paths in one process.
    """
    global _numpy, _numpy_probed
    if os.environ.get(ENV_NUMPY, "").strip().lower() in _OFF_VALUES:
        return None
    if not _numpy_probed:
        _numpy = _probe_numpy()
        _numpy_probed = True
    return _numpy


def numpy_enabled() -> bool:
    """Whether the vectorised kernels are available right now."""
    return get_numpy() is not None


def address_column(np: Any, addresses: Sequence[int]) -> Any:
    """``addresses`` as a uint64 ndarray — zero-copy for buffer-backed
    sequences (``array('Q')``, ``memoryview``), one copy for lists."""
    try:
        return np.frombuffer(addresses, dtype=np.uint64)  # type: ignore[arg-type]
    except TypeError:
        return np.asarray(addresses, dtype=np.uint64)


def kind_column(np: Any, kinds: Sequence[int]) -> Any:
    """``kinds`` as a uint8 ndarray (zero-copy where possible)."""
    try:
        return np.frombuffer(kinds, dtype=np.uint8)  # type: ignore[arg-type]
    except TypeError:
        return np.asarray(kinds, dtype=np.uint8)


def block_columns(
    addresses: Sequence[int],
    offset_bits: int,
    index_mask: int,
    num_sets: int,
) -> tuple[list[int], Any] | None:
    """Vectorised address math for the set-associative loop.

    Returns ``(block column, per-set access counts)`` — the block
    numbers as a plain Python list plus a bincount ndarray — or
    ``None`` when the numpy path is unavailable or not worthwhile.
    The caller's loop then consumes a pre-shifted column instead of
    shifting every address itself, and skips per-access set counting
    entirely.
    """
    np = get_numpy()
    if np is None or len(addresses) < MIN_VECTOR_LEN:
        return None
    blocks = address_column(np, addresses) >> np.uint64(offset_bits)
    counts = np.bincount(
        (blocks & np.uint64(index_mask)).astype(np.intp), minlength=num_sets
    )
    return blocks.tolist(), counts


def shifted_blocks(
    addresses: Sequence[int], offset_bits: int
) -> list[int] | None:
    """Vectorised block-number extraction for the B-Cache loop.

    The B-Cache's set index depends on the programmable-decoder state,
    so neither per-set counters nor hit detection vectorise; only the
    offset shift does.  Returns the block numbers as a plain Python
    list, or ``None`` when the numpy path is unavailable.
    """
    np = get_numpy()
    if np is None or len(addresses) < MIN_VECTOR_LEN:
        return None
    return (address_column(np, addresses) >> np.uint64(offset_bits)).tolist()


def add_set_counts(counters: list[int], counts: Any) -> list[int]:
    """Accumulate a bincount ndarray into a per-set counter list;
    returns the indices it added to (the sets the batch touched)."""
    np = get_numpy()
    if np is None:  # pragma: no cover - callers hold a counts array
        return []
    touched = np.flatnonzero(counts).tolist()
    for index in touched:
        counters[index] += int(counts[index])
    return touched


def dm_batch(
    cache: "DirectMappedCache",
    addresses: Sequence[int],
    kinds: Sequence[int] | None,
) -> bool:
    """Vectorised direct-mapped batch kernel.

    Returns ``True`` when the batch was fully applied (statistics and
    cache state updated bit-identically to the scalar replay), or
    ``False`` when a precondition fails and the caller must run the
    stdlib loop instead.

    The algorithm sorts references by set index (stable, so order
    within a set stays chronological), detects hits by comparing each
    reference's tag with its predecessor's in the same set (after a
    fill *or* a hit the resident tag equals the reference's tag), and
    resolves writebacks with prefix sums of the write flags over
    residency segments.
    """
    np = get_numpy()
    n = len(addresses)
    if np is None or n < MIN_VECTOR_LEN or cache.num_sets > MAX_VECTOR_SETS:
        return False
    column = address_column(np, addresses)
    if int(column.max()) >= 1 << 63:
        # Tags must stay clear of the all-ones invalid sentinel.
        return False

    blocks = column >> np.uint64(cache.offset_bits)
    index = (blocks & np.uint64(cache._index_mask)).astype(np.uint16)
    tag = blocks >> np.uint64(cache.index_bits)
    order = np.argsort(index, kind="stable")
    index_s = index[order]
    tag_s = tag[order]

    # Initial per-set state as uint64 columns (invalid -> sentinel).
    try:
        init = np.asarray(cache._tags, dtype=np.int64)
    except OverflowError:
        # A prior batch of >=2**63 addresses left wider-than-int64
        # resident tags; only the stdlib loop handles those.
        return False
    init_u = np.where(init < 0, np.uint64(_INVALID), init.astype(np.uint64))
    init_dirty = np.asarray(cache._dirty, dtype=bool)

    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(index_s[1:], index_s[:-1], out=first[1:])

    # Resident tag before each reference: the previous reference's tag
    # within the set (hit or fill, the resident equals it afterwards),
    # or the pre-batch resident at each set's first reference.
    hit_s = np.empty(n, dtype=bool)
    np.equal(tag_s[1:], tag_s[:-1], out=hit_s[1:])
    hit_s[first] = tag_s[first] == init_u[index_s[first]]
    miss_s = ~hit_s

    if kinds is None:
        write_s = None
        prefix = None
        writes = 0
    else:
        write_flags = kind_column(np, kinds) == 1
        write_s = write_flags[order]
        prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(write_s, dtype=np.int64, out=prefix[1:])
        writes = int(prefix[n])

    # Residency segments: a segment starts at each fill (miss) and at
    # each set's first reference.  Segment starts are only queried at a
    # handful of positions, so a sorted start list + searchsorted beats
    # materialising a full per-position segment column.
    starts = np.flatnonzero(first | miss_s)

    def segment_start(queries: Any) -> Any:
        """Start position of the segment each query position lies in."""
        return starts[np.searchsorted(starts, queries, side="right") - 1]

    miss_pos = np.flatnonzero(miss_s)
    lead = first[miss_pos]  # misses at a set's first reference
    miss_lead = miss_pos[lead]
    miss_rest = miss_pos[~lead]

    # Evictions: every non-leading miss evicts (the set is resident by
    # then); a leading miss evicts only a valid pre-batch block.
    lead_valid = init_u[index_s[miss_lead]] != np.uint64(_INVALID)
    evictions = int(miss_rest.size) + int(np.count_nonzero(lead_valid))

    # Writebacks at leading misses: the pre-batch resident's dirty bit.
    writebacks = int(np.count_nonzero(lead_valid & init_dirty[index_s[miss_lead]]))
    # Writebacks at non-leading misses: the evicted block was dirtied
    # by a write since its segment start, or it is the pre-batch
    # resident (segment started with a hit at the set's first
    # reference) and was already dirty.
    if miss_rest.size:
        seg_start = segment_start(miss_rest - 1)
        inherited = first[seg_start] & hit_s[seg_start]
        dirty_before = inherited & init_dirty[index_s[miss_rest]]
        if prefix is not None:
            dirty_before = dirty_before | (
                (prefix[miss_rest] - prefix[seg_start]) > 0
            )
        writebacks += int(np.count_nonzero(dirty_before))

    misses = int(miss_pos.size)
    hits = n - misses

    # Per-set counters via bincount (BCL009-free by construction).
    # Misses are the minority; counting them and subtracting is cheaper
    # than boolean-masking the full hit column.
    stats = cache.stats
    counts = np.bincount(index_s, minlength=cache.num_sets)
    miss_counts = np.bincount(index_s[miss_pos], minlength=cache.num_sets)
    add_set_counts(stats.set_accesses, counts)
    add_set_counts(stats.set_hits, counts - miss_counts)
    add_set_counts(stats.set_misses, miss_counts)

    # Final per-set state: after its last reference a set's resident
    # tag equals that reference's tag; its dirty bit follows the same
    # segment algebra as the writeback computation.
    group_last = np.flatnonzero(np.concatenate((first[1:], [True])))
    final_sets = index_s[group_last]
    final_tags = tag_s[group_last]
    last_start = segment_start(group_last)
    final_inherited = first[last_start] & hit_s[last_start]
    final_dirty = final_inherited & init_dirty[final_sets]
    if prefix is not None:
        final_dirty = final_dirty | (
            (prefix[group_last + 1] - prefix[last_start]) > 0
        )
    tags_list = cache._tags
    dirty_list = cache._dirty
    for set_index, set_tag, set_dirty in zip(
        final_sets.tolist(), final_tags.tolist(), final_dirty.tolist()
    ):
        tags_list[set_index] = set_tag
        dirty_list[set_index] = set_dirty

    stats.accesses += n
    stats.reads += n - writes
    stats.writes += writes
    stats.hits += hits
    stats.misses += misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    # A fixed decoder always selects a set: every miss is a PD hit.
    stats.pd_hit_misses += misses
    return True
