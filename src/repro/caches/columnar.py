"""Columnar helpers for the batch replay kernels.

The batch kernels in :mod:`repro.caches` operate on flat integer
columns: the ``array('Q')``/``memoryview`` address blob handed out by
the trace store flows straight into ``_batch_trace`` with no per-access
object materialised anywhere between disk and kernel.  This module
holds the numpy side of that representation:

* :func:`dm_batch` — a fully vectorised direct-mapped kernel
  (tag/index extraction, hit detection via a stable per-set sort,
  writeback algebra over residency segments, ``np.bincount`` per-set
  counters) that is bit-identical to the scalar replay;
* :func:`block_columns` / :func:`shifted_blocks` — column preparation
  for the set-associative and B-Cache loops under random, fifo and
  plru (exact LRU is compiled, :mod:`repro.caches.native`).

The direct-mapped kernel keeps a Python loop beside :func:`dm_batch`,
which declines short batches, caches with more than
:data:`MAX_VECTOR_SETS` sets and addresses at or above 2**63.

Importing numpy costs a process about 14 MB of resident memory and
0.2 s (2-vCPU x86-64 host, numpy 2.4), so the kernel modules import
this one on their first batch: a process that replays no batch, such
as the gateway or the serve front end while its shard workers are up,
never loads numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caches.direct_mapped import DirectMappedCache

#: Below this batch length the vectorisation setup of :func:`dm_batch`
#: costs more than the direct-mapped loop saves.
MIN_VECTOR_LEN = 1024

#: The stable argsort is radix sort for 1- and 2-byte keys (fast) but
#: comparison sort for wider ones (slow); set indices are therefore
#: packed into uint16, which bounds the vectorised path to 2**16 sets.
MAX_VECTOR_SETS = 1 << 16

#: Tag sentinel for an invalid (empty) set in the vectorised kernel.
#: Safe because the kernel refuses addresses at or above 2**63: every
#: real tag is then strictly below the all-ones pattern.
_INVALID = (1 << 64) - 1


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


def block_columns(
    addresses: Sequence[int],
    offset_bits: int,
    index_mask: int,
    num_sets: int,
) -> tuple[list[int], Any]:
    """``(block numbers as a list, per-set access counts as a bincount
    ndarray)`` for the set-associative loop, which then skips per-access
    shifting and set counting."""
    blocks = address_column(addresses) >> np.uint64(offset_bits)
    counts = np.bincount(
        (blocks & np.uint64(index_mask)).astype(np.intp), minlength=num_sets
    )
    return blocks.tolist(), counts


def shifted_blocks(addresses: Sequence[int], offset_bits: int) -> list[int]:
    """The block numbers as a list, for the B-Cache loop (whose set
    index depends on decoder state, so only the shift vectorises)."""
    return (address_column(addresses) >> np.uint64(offset_bits)).tolist()


def add_set_counts(counters: list[int], counts: Any) -> list[int]:
    """Accumulate a bincount ndarray into a per-set counter list;
    returns the indices it added to (the sets the batch touched)."""
    touched: list[int] = np.flatnonzero(counts).tolist()
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
    direct-mapped loop instead.

    The algorithm sorts references by set index (stable, so order
    within a set stays chronological), detects hits by comparing each
    reference's tag with its predecessor's in the same set (after a
    fill *or* a hit the resident tag equals the reference's tag), and
    resolves writebacks with prefix sums of the write flags over
    residency segments.
    """
    n = len(addresses)
    if n < MIN_VECTOR_LEN or cache.num_sets > MAX_VECTOR_SETS:
        return False
    column = address_column(addresses)
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
        # resident tags; only the direct-mapped loop handles those.
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
        write_flags = kind_column(kinds) == 1
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
