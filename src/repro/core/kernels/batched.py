"""Batched (multi-source) bottom-up lane scan.

One scan pass over the unvisited vertices serves up to 64 BFS sources
at once: every per-vertex structure of the sequential scan — "is this
vertex in the frontier", "is this vertex still unvisited", "is this
summary block non-empty" — generalizes from one bit to one ``uint64``
*lane word* whose bit ``j`` answers the question for batch lane ``j``
(the natural extension of :mod:`repro.core.bitmap`).

The scan gathers each candidate's adjacency **once** and answers all
lanes from the gathered neighbours, which is where the batching win
comes from: the expensive scattered loads (CSR targets, frontier words)
are amortized over the whole batch while the per-lane work is cheap
dense bit arithmetic.

Accounting is *windowing-independent* and therefore bit-identical to
the sequential kernels regardless of the chunk schedule:

* ``examined_edges`` for (vertex ``v``, lane ``j``) is the position of
  ``v``'s first lane-``j`` frontier neighbour (inclusive), or ``deg(v)``
  when there is none — exactly the sequential early-exit count;
* ``inqueue_reads`` counts the examined prefix positions whose summary
  block is non-empty *for that lane* (Section II.B.2's filter), or
  equals ``examined_edges`` when the summary is disabled;
* each discovered vertex's parent is its first lane-``j`` frontier
  neighbour, and discoveries are reported in ascending local-id order
  per lane — the sequential bottom-up discovery order.

Like the sequential kernels, the chunked schedule (width doubling with
early retirement) only changes how much adjacency is materialized per
round, never the counts.

The scan can cover many ranks in one call: pass ``groups`` (the owning
rank of each row) and the per-lane counts come back broken down per
rank, shaped ``(num_groups, 64)``.  Because rank partitions are
contiguous ascending vertex ranges, discoveries sorted by (lane, vertex
id) are already in the sequential rank-major discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import bitops

__all__ = [
    "LaneScanResult",
    "lane_scan",
    "pack_lanes",
    "pack_level",
    "MAX_LANES",
]

#: Lanes per batch — one bit per source in a lane word.
MAX_LANES = 64


@dataclass
class LaneScanResult:
    """Outcome of one batched bottom-up scan.

    The count arrays are shaped ``(num_groups, lane_capacity)`` — one
    row per rank group (a single row when the scan covered one rank),
    one column per bit of the packed lane words; unused lanes stay
    zero.  Discovery triples are sorted by (lane, local id),
    so one ``searchsorted`` on ``disc_lane`` yields each lane's slice in
    the sequential (ascending local id) discovery order.
    """

    candidates: np.ndarray  # int64[num_groups, lane_capacity]
    examined_edges: np.ndarray  # int64[num_groups, lane_capacity]
    inqueue_reads: np.ndarray  # int64[num_groups, lane_capacity]
    disc_lane: np.ndarray  # int64[D]
    disc_local: np.ndarray  # int64[D]
    disc_parent: np.ndarray  # int64[D] (global parent ids)
    # Diagnostics (never priced), mirroring BottomUpResult's.
    gathered_edges: int = 0
    chunk_rounds: int = 0


def _lane_dtype(num_lanes: int) -> np.dtype:
    """Smallest unsigned word type with at least ``num_lanes`` bits.

    Narrower lane words halve (or better) the dominant per-edge bit
    traffic of the scan whenever the batch is small.
    """
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if num_lanes <= np.dtype(dt).itemsize * 8:
            return np.dtype(dt)
    raise ValueError(f"at most {MAX_LANES} lanes, got {num_lanes}")


def pack_lanes(bools: np.ndarray) -> np.ndarray:
    """Pack a ``(num_lanes, n)`` boolean matrix into lane words — bit
    ``j`` of word ``i`` is ``bools[j, i]``.  The word dtype is the
    smallest unsigned type that holds ``num_lanes`` bits."""
    num_lanes, n = bools.shape
    dt = _lane_dtype(num_lanes)
    nbits = dt.itemsize * 8
    padded = np.zeros((n, nbits), dtype=np.uint8)
    padded[:, :num_lanes] = bools.T
    return (
        np.packbits(padded, axis=1, bitorder="little")
        .reshape(n, dt.itemsize)
        .view(dt)[:, 0]
    )


def pack_level(lg, parent, rows, in_queues, summaries):
    """Lane words of one batched bottom-up level, built with numpy.

    Lane ``b`` is the traversal whose parent array is ``parent[rows[b]]``
    and whose published frontier is ``in_queues[b]`` (``summaries[b]``
    its summary; ``summaries`` is None when the structure is disabled).
    Returns ``(active_lanes, inq_lanes, summary_lanes)`` as
    :func:`lane_scan` takes them: a lane seeks a vertex it has not
    reached (negative parent) that has an adjacency to scan.
    """
    def pack(bitmaps, nbits):
        return pack_lanes(
            np.stack([bitops.bits_to_bool(b.words, nbits) for b in bitmaps])
        )

    active = pack_lanes(
        (parent[rows] < 0) & (lg.offsets[1:] > lg.offsets[:-1])
    )
    inq = pack(in_queues, in_queues[0].nbits)
    if summaries is None:
        return active, inq, None
    return active, inq, pack(summaries, summaries[0].nblocks)


def _unpack_lanes(words: np.ndarray) -> np.ndarray:
    """Expand lane words into bit planes: ``(..., lane_bits)`` uint8."""
    contiguous = np.ascontiguousarray(words)
    itemsize = words.dtype.itemsize
    as_bytes = contiguous.view(np.uint8).reshape(words.shape + (itemsize,))
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")


def _summary_reads(
    summary_lanes: np.ndarray,
    granularity: int,
    targets: np.ndarray,
    starts: np.ndarray,
    grp: np.ndarray,
    gbounds: np.ndarray,
    ex_len: np.ndarray,
    num_groups: int,
    cell_chunk: int = 1 << 18,
) -> np.ndarray:
    """Summary-filtered ``inqueue_reads`` from examined-prefix lengths.

    A lane's reads are the positions in its examined prefix whose
    summary block is non-empty *for that lane* — a pure function of the
    final prefix lengths, so it is computed here in one flattened pass
    instead of inside every chunk round: gather each row's longest
    per-lane prefix once, unpack the summary lane words, and mask each
    lane to its own prefix.  ``cell_chunk`` bounds the temporaries.
    """
    nbits = ex_len.shape[1]
    reads = np.zeros((num_groups, nbits), dtype=np.int64)
    maxex = ex_len.max(axis=1).astype(np.int64)  # (R,)
    nz = np.flatnonzero(maxex)
    if nz.size == 0:
        return reads

    lens = maxex[nz]
    row_starts = starts[nz]
    exs = ex_len[nz]
    seg = np.concatenate(([np.int64(0)], np.cumsum(lens)))
    total = int(seg[-1])
    # grp is non-decreasing, so each group is a contiguous cell range.
    rb = np.searchsorted(grp[nz], np.arange(num_groups + 1))
    cell_bounds = seg[rb]

    for lo in range(0, total, cell_chunk):
        hi = min(lo + cell_chunk, total)
        r0 = int(np.searchsorted(seg, lo, side="right")) - 1
        r1 = int(np.searchsorted(seg, hi, side="left"))
        rr = np.arange(r0, r1)
        counts = np.minimum(seg[rr + 1], hi) - np.maximum(seg[rr], lo)
        crow = np.repeat(rr, counts)
        rel = np.arange(lo, hi, dtype=np.int64) - seg[crow]
        sw = summary_lanes[targets[row_starts[crow] + rel] // granularity]
        contrib = _unpack_lanes(sw) & (rel[:, None] < exs[crow])
        for g in range(num_groups):
            a = int(max(cell_bounds[g], lo)) - lo
            b = int(min(cell_bounds[g + 1], hi)) - lo
            if a < b:
                reads[g] += contrib[a:b].sum(axis=0, dtype=np.int64)
    return reads


def _empty_result(num_groups: int, nbits: int) -> LaneScanResult:
    zeros = np.zeros((num_groups, nbits), dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    return LaneScanResult(
        candidates=zeros.copy(),
        examined_edges=zeros.copy(),
        inqueue_reads=zeros.copy(),
        disc_lane=empty,
        disc_local=empty.copy(),
        disc_parent=empty.copy(),
    )


def lane_scan(
    lg,
    active_lanes: np.ndarray,
    inq_lanes: np.ndarray,
    summary_lanes: np.ndarray | None,
    granularity: int,
    *,
    initial_width: int | None = 2,
    max_width: int = 1 << 16,
    groups: np.ndarray | None = None,
    num_groups: int = 1,
) -> LaneScanResult:
    """Scan candidates against up to 64 frontier lanes.

    ``active_lanes`` (one lane word per local vertex) marks which lanes
    still seek each vertex; ``inq_lanes`` (one lane word per *global*
    vertex, same dtype) marks the lanes whose frontier contains it;
    ``summary_lanes`` marks, per summary block of ``granularity``
    vertices, the lanes whose block is non-empty (``None`` when the
    summary structure is disabled).  ``initial_width=None`` materializes
    every candidate's full adjacency in one round (the reference
    backend's strategy); an integer starts the active-set width-doubling
    schedule there.  ``groups`` assigns each local vertex a rank group
    and must be non-decreasing in vertex id (rank partitions are
    contiguous ranges); counts come back shaped
    ``(num_groups, lane_capacity)``.
    """
    lane_dt = active_lanes.dtype
    nbits = lane_dt.itemsize * 8
    lane_one = lane_dt.type(1)
    rows = np.flatnonzero(active_lanes)
    if rows.size == 0:
        return _empty_result(num_groups, nbits)

    act = active_lanes[rows].copy()
    act_init = act.copy()
    grp = (
        groups[rows].astype(np.int64)
        if groups is not None
        else np.zeros(rows.size, dtype=np.int64)
    )
    abits = _unpack_lanes(act)  # (R, nbits)
    # grp is non-decreasing, so each group is a contiguous row range;
    # plain slice sums beat both bincount and reduceat here.
    gbounds = np.searchsorted(grp, np.arange(num_groups + 1))
    candidates = np.zeros((num_groups, nbits), dtype=np.int64)
    for g in range(num_groups):
        a, b = int(gbounds[g]), int(gbounds[g + 1])
        if a < b:
            candidates[g] = abits[a:b].sum(axis=0, dtype=np.int64)

    offsets = lg.offsets
    targets = lg.targets
    starts = offsets[rows]
    degs = (offsets[rows + 1] - starts).astype(np.int64)
    last = np.maximum(starts + degs - 1, starts)
    rem = degs.copy()
    done = np.zeros(rows.size, dtype=np.int64)

    examined = np.zeros((num_groups, nbits), dtype=np.int64)
    reads = np.zeros((num_groups, nbits), dtype=np.int64)
    use_summary = summary_lanes is not None
    if use_summary:
        # Examined-prefix length per (row, lane); filled at hits and at
        # adjacency exhaustion, consumed by the post-pass that computes
        # the summary-filtered read counts outside the chunk loop.
        # int32 is safe: a prefix is bounded by the row degree.
        ex_len = np.zeros((rows.size, nbits), dtype=np.int32)

    # Per-(row, lane) winning parent, written once at each hit.  int32
    # suffices whenever vertex ids fit it (they are global CSR ids).
    par_dt = np.int64 if offsets.size - 1 > np.iinfo(np.int32).max else np.int32
    parent_mat = np.empty((rows.size, nbits), dtype=par_dt)

    gathered = 0
    rounds = 0
    live = np.flatnonzero((act != 0) & (rem > 0))
    width = initial_width
    while live.size:
        rounds += 1
        if width is None:
            w = int(rem[live].max())
        else:
            w = int(min(width, int(rem[live].max())))
        col = np.arange(w, dtype=np.int64)
        pos = starts[live, None] + done[live, None] + col
        np.minimum(pos, last[live, None], out=pos)
        nb = targets[pos]  # (L, w) global neighbour ids
        valid = col < rem[live, None]
        gathered += int(np.minimum(rem[live], w).sum())

        nb_inq = inq_lanes[nb]
        nb_inq &= act[live, None]  # only lanes still seeking this row
        nb_inq[~valid] = 0
        # Which (row, lane) pairs hit anywhere in the window — an OR over
        # the window's lane words, unpacked only for rows that hit (never
        # the full (L, w, 64) bit planes; hits are sparse).
        hit_words = np.bitwise_or.reduce(nb_inq, axis=1)  # (L,) lane words

        hrows = np.flatnonzero(hit_words)
        if hrows.size:
            hr, jj = np.nonzero(_unpack_lanes(hit_words[hrows]))
            rr = hrows[hr]
            # First hit column per hit pair, from the (H, w) word gather.
            lane_bit = (
                (nb_inq[rr] >> jj.astype(lane_dt)[:, None]) & lane_one
            ).astype(np.uint8)
            fh = lane_bit.argmax(axis=1)
            gl = live[rr]  # row-array indices
            prefix = done[gl] + fh + 1
            # bincount beats ufunc.at for the scatter-adds: float64
            # weights are exact here (prefixes are far below 2**53).
            examined += np.bincount(
                grp[gl] * nbits + jj,
                weights=prefix.astype(np.float64),
                minlength=num_groups * nbits,
            ).reshape(num_groups, nbits).astype(np.int64)
            if use_summary:
                ex_len[gl, jj] = prefix.astype(np.int32)
            parent_mat[gl, jj] = nb[rr, fh].astype(par_dt)
            # Retire each hit lane.  A (row, lane) pair occurs at most
            # once per round, so the OR of a row's retired lane bits is
            # their *sum*; split at bit 32 keeps the float64 sums exact.
            lo_mask = jj < 32
            retire = np.bincount(
                gl[lo_mask],
                weights=np.ldexp(1.0, jj[lo_mask].astype(np.int32)),
                minlength=act.size,
            ).astype(np.uint64)
            if nbits > 32 and not lo_mask.all():
                hi = ~lo_mask
                retire |= np.bincount(
                    gl[hi],
                    weights=np.ldexp(1.0, (jj[hi] - 32).astype(np.int32)),
                    minlength=act.size,
                ).astype(np.uint64) << np.uint64(32)
            act &= ~retire.astype(lane_dt)

        step = np.minimum(rem[live], w)
        done[live] += step
        rem[live] -= step
        live = live[(act[live] != 0) & (rem[live] > 0)]
        if width is not None:
            width = min(width * 2, max_width)

    # Lanes that exhausted a row's adjacency without a hit examined the
    # full degree.
    left = np.flatnonzero(act != 0)
    if left.size:
        lbits = _unpack_lanes(act[left]).astype(bool)
        lr, lj = np.nonzero(lbits)
        np.add.at(examined, (grp[left[lr]], lj), degs[left][lr])
        if use_summary:
            ex_len[left[lr], lj] = degs[left][lr].astype(np.int32)

    if use_summary:
        reads = _summary_reads(
            summary_lanes, granularity, targets, starts, grp, gbounds,
            ex_len, num_groups,
        )
    else:
        # Without the summary filter every examined edge reads in_queue.
        reads = examined.copy()

    # Hits are exactly the retired lane bits.  Enumerating them from the
    # transposed bit planes yields (lane, ascending row) order directly —
    # the sequential per-lane discovery order — with no sort at all.
    hitw = act_init & ~act
    if hitw.any():
        planes = np.ascontiguousarray(_unpack_lanes(hitw).T)  # (nbits, R)
        jl, rl = np.nonzero(planes)
        disc_lane = jl.astype(np.int64)
        disc_local = rows[rl]
        disc_parent = parent_mat[rl, jl].astype(np.int64)
    else:
        disc_local = np.zeros(0, dtype=np.int64)
        disc_lane = np.zeros(0, dtype=np.int64)
        disc_parent = np.zeros(0, dtype=np.int64)

    return LaneScanResult(
        candidates=candidates,
        examined_edges=examined,
        inqueue_reads=reads,
        disc_lane=disc_lane,
        disc_local=disc_local,
        disc_parent=disc_parent,
        gathered_edges=gathered,
        chunk_rounds=rounds,
    )
