"""The active-set (chunked early-exit) kernel backend.

The paper's bottom-up phase is cheap because each unvisited vertex's
scan *early-exits* at its first frontier neighbour — on mid-BFS levels
the average examined prefix is a handful of edges, while total candidate
degree is nearly all ``2E`` local arcs.  The reference backend
nevertheless materializes the full adjacency.  This backend instead
processes candidates in degree-bounded chunks (*wavefront peeling*):

1. every still-active candidate tests its next ``width`` untested
   neighbours (fewer when its row ends first);
2. a neighbour's bits are read from two byte tables built once per
   level, ``n`` bytes each: ``in_queue`` unpacked to one bool per
   vertex, and the summary with each block's bit repeated over the
   ``granularity`` vertices it covers.  Every probe is then one byte
   gather; the summary bit only decides whether the probe counts as an
   ``in_queue`` read (a zero block proves a miss, because a summary bit
   covers its base bits);
3. candidates that hit retire with that neighbour as parent; candidates
   with adjacency left stay active; ``width`` doubles so the rounds for
   a degree-``d`` holdout are ``O(log d)``.

A round's layout follows its width.  Rounds at most ``_COLUMN_WIDTH``
cells wide — the first few, in which a mid-BFS level's candidates
mostly retire after an edge or two — run column by column: one
contiguous gather per column over the rows still going, and a row
leaves at its first hit, so the first hit, the early-exit count and the
summary-filtered reads build up column by column.  Wider rounds, the
hub holdouts whose widths reach the thousands, test a dense
``(active, width)`` block row-major, the per-row first hit one
``argmax``, so the Python loop stays ``O(log d)`` per scan.  The block
pads short rows by clamping to the row's last edge; a padded cell
duplicates the bit of its row's *last real* edge, so it can only repeat
a hit that exists earlier in the row (never create the first one), and
the examined/read counts are always clipped to the row's real length.

Memory stays bounded: a candidate surviving to round ``k`` has already
consumed ``width₀·(2^k - 1)`` edges, so each round's padding is smaller
than the edges its survivors already examined.  Per-round temporaries
are ``O(active · width)`` and total gathered cells are ``O(examined)``
— memory and bitmap probes scale with the *examined* edges of the level
rather than the total candidate degree.  All Section II.B.2 accounting
is bit-identical to the reference backend; only the
``gathered_edges``/``chunk_rounds`` diagnostics differ (``gathered_edges``
counts the cells each round reads: a column round's up to each row's
first hit, a row round's block up to each row's end).

The wavefront runs once per block of consecutive ranks
(:func:`scan_rank_slices`): candidates are found over blocks of at most
32 K vertices, and ranks are grouped into blocks of at most 8 K
candidates (``ActiveSetBackend._blocks``).  A block of several ranks
scans their candidates in one wavefront with per-candidate counts: a
row's examined cells are its exit cell (its hit, or its last cell) less
its first, so only the summary-filtered reads build up round by round;
the four per-rank counts are running sums cut at the rank bounds.  A
rank holding more candidates than the budget is a block of its own and
takes the totals-only scan, which keeps large ranks' temporaries
cache-resident and their rounds free of per-candidate bookkeeping.

The wavefront still walks every *missing* candidate's whole row.  On a
level whose frontier touches few arcs — level 0 of an all-bottom-up
run, where the frontier is the root — nearly every candidate misses, so
the scan costs the whole graph.  For a
:class:`~repro.graph.types.Graph` the backend then counts
the level from the frontier's side instead, every rank in one pass:

1. ``hit`` marks the targets of the frontier's arcs.  The CSR is
   symmetric, deduplicated and loop-free, so a candidate has a frontier
   neighbour iff it is hit.
2. A candidate that is not hit examines its whole row (``deg``) and
   reads ``in_queue`` once per arc into a lit summary block.  By
   symmetry that is the number of the lit blocks' arcs that point at
   it — one ``bincount`` over the lit blocks' adjacency.
3. The hit candidates, few on such a level, run the wavefront above in
   one call for their parents and early-exit counts.

A two-stage gate picks the path (both count identically): stage (a)
keeps the dense scan when the lit blocks hold a quarter of the arcs or
more, which costs O(n/g); stage (b) compares the frontier side's reads
with an estimate of the dense scan's cells, ``sum(min(deg, 1/p))`` over
the candidates (``p`` the share of arcs leading into the frontier).
docs/PERFORMANCE.md has the measurements behind both.  On the
frontier-side path ``gathered_edges`` is the frontier and lit arcs read
plus the wavefront's cells, and ``chunk_rounds`` the wavefront's
rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    _rank_sums,
    register_backend,
    scan_rank_slices,
)
from repro.errors import ConfigError
from repro.graph.types import Graph
from repro.util import bitops
from repro.util.segments import gather_adjacency

__all__ = ["ActiveSetBackend"]

# The frontier-side gate (see ActiveSetBackend._frontier_side_plan).  Both
# paths count a level identically, so these only pick the faster one.
#: Stage (a): the dense scan once the lit blocks hold 1/_LIT_SHARE of
#: the scanned vertices' arcs.
_LIT_SHARE = 4
#: Stage (b): the frontier side's O(n) passes cost one dense-scan cell
#: per _VERTICES_PER_CELL scanned vertices.
_VERTICES_PER_CELL = 4

#: Wavefront rounds at most this wide run column by column
#: (:func:`_columns`); wider ones, the hub holdouts, row-major
#: (:func:`_rows`), where a column loop would run thousands of times.
_COLUMN_WIDTH = 8


def _byte_tables(in_queue, summary):
    """``in_queue`` and the summary as bool tables over the vertices, so
    every probe is one byte gather: the summary's bit for block ``b`` is
    repeated over the ``granularity`` vertices it covers (None without a
    summary)."""
    n = in_queue.nbits
    table = bitops.bits_to_bool(in_queue.words, n)
    if summary is None:
        return table, None
    blocks = bitops.bits_to_bool(summary.words, summary.nblocks)
    return table, np.repeat(blocks, summary.granularity)[:n]


@register_backend
class ActiveSetBackend(KernelBackend):
    """Chunked bottom-up scan that retires candidates at their first hit."""

    name = "activeset"

    #: First-round chunk width (edges tested per candidate per round).
    #: Mid-BFS candidates retire after one or two edges, so the first
    #: round stays tiny; doubling covers heavy holdouts in O(log d).
    DEFAULT_CHUNK = 2
    #: Upper bound on the doubled chunk width, so one giant-degree hub
    #: cannot force a wavefront as large as the full-materialization path.
    MAX_CHUNK = 1 << 16

    def __init__(self, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ConfigError(f"kernel chunk must be >= 1, got {chunk}")
        self.chunk = int(chunk)

    #: Test seam: None lets the gate choose, True/False forces the
    #: frontier-side/dense path on a ``Graph``.
    _force_frontier_side: bool | None = None
    #: The dense scan's block budgets (:func:`scan_rank_slices`): it
    #: finds candidates over blocks of consecutive ranks holding at most
    #: this many vertices, and runs one wavefront per block holding at
    #: most this many candidates.  A test seam too.
    _blocks: tuple[int, int] = (32768, 8192)

    def bottom_up_scan(
        self, graph, parent, in_queue, summary, bounds
    ) -> BottomUpResult:
        """The level from the frontier's side when that is exact and
        cheaper, else each rank's candidates in early-exiting chunks."""
        if isinstance(graph, Graph):
            plan = self._frontier_side_plan(
                graph, parent, in_queue, summary, bounds
            )
            if plan is not None:
                return self._frontier_side_scan(
                    graph, parent, in_queue, summary, bounds, *plan
                )
        return scan_rank_slices(
            self._scan, graph, parent, *_byte_tables(in_queue, summary),
            bounds, *self._blocks,
        )

    def _frontier_side_plan(self, graph, parent, in_queue, summary, bounds):
        """The gate: ``(frontier, lit)`` when the frontier side is the
        cheaper way to count this level, None when the dense scan is.

        ``frontier`` is the frontier's ids and ``lit`` the lit summary
        blocks as ``(block_edges, blocks)``: block ``b``'s arcs start at
        ``block_edges[b]`` (None without a summary).
        """
        force = self._force_frontier_side
        if force is False:
            return None
        offsets = graph.offsets
        lo, hi = int(bounds[0]), int(bounds[-1])
        # Stage (a), O(n/g): the arcs of the lit blocks (of the non-zero
        # in_queue words without a summary) bound the frontier side's.
        if summary is None:
            g, lit_blocks = 64, in_queue.words != 0
        else:
            g = summary.granularity
            lit_blocks = bitops.bits_to_bool(summary.words, summary.nblocks)
        block_edges = offsets[::g]
        if block_edges.size == lit_blocks.size:  # a partial last block
            block_edges = np.append(block_edges, offsets[-1])
        lit_arcs = int(np.diff(block_edges)[lit_blocks].sum())
        arcs = offsets[hi] - offsets[lo]
        if force is None and _LIT_SHARE * lit_arcs >= arcs:
            return None
        frontier = in_queue.indices()
        if summary is None:
            lit, lit_arcs = None, 0
        else:
            lit = block_edges, np.flatnonzero(lit_blocks)
        if force is None:
            # Stage (b): with a share p of all arcs leading into the
            # frontier, the dense scan gathers about min(deg, 1/p) cells
            # per candidate; the frontier side reads the lit and frontier
            # arcs and makes a few passes over the vertices.
            f_arcs = int((offsets[frontier + 1] - offsets[frontier]).sum())
            capped = np.subtract(offsets[lo + 1:hi + 1], offsets[lo:hi])
            reach = graph.targets.size // max(f_arcs, 1)  # 1/p
            np.minimum(capped, reach, out=capped)
            np.putmask(capped, parent[lo:hi] >= 0, 0)
            dense = int(capped.sum())
            if lit_arcs + f_arcs + (hi - lo) // _VERTICES_PER_CELL >= dense:
                return None
        return frontier, lit

    def _frontier_side_scan(
        self, graph, parent, in_queue, summary, bounds, frontier, lit
    ) -> BottomUpResult:
        """The whole level for every rank in one pass from the frontier.

        A ``Graph`` is symmetric, deduplicated and loop-free, so a
        candidate has a frontier neighbour iff it is a target of a
        frontier arc.  One that has none examines its whole row and
        reads in_queue once per arc into a lit block, and those arcs are
        counted from the lit blocks' side.  Only the candidates that do
        hit run the wavefront :meth:`_scan`, every rank in one call, for
        their parents and early-exit counts.  ``gathered_edges`` is the
        frontier and lit arcs read plus the wavefront's cells.
        """
        offsets, targets = graph.offsets, graph.targets
        n = graph.num_vertices
        lo, hi = int(bounds[0]), int(bounds[-1])
        deg = offsets[lo + 1:hi + 1] - offsets[lo:hi]
        cand = np.flatnonzero((parent[lo:hi] < 0) & (deg > 0))
        examined = deg[cand]
        cand += lo
        f_pos = gather_adjacency(offsets, frontier).pos
        hit = np.zeros(n, dtype=bool)
        hit[targets[f_pos]] = True
        gathered = int(f_pos.size)
        if lit is None:
            reads = examined
        else:
            l_pos = gather_adjacency(*lit).pos
            reads = np.bincount(targets[l_pos], minlength=n)[cand]
            gathered += int(l_pos.size)
        hits = np.flatnonzero(hit[cand])
        found = cand[hits]
        disc_degree = examined[hits]
        rounds = 0
        if found.size:
            _, parents, hit_examined, hit_reads, cells, rounds = self._scan(
                graph, found, *_byte_tables(in_queue, summary),
                per_candidate=True,
            )
            parent[found] = parents
            examined[hits] = hit_examined
            reads[hits] = hit_reads
            gathered += cells
        return BottomUpResult(
            found, *_rank_sums(cand, bounds, examined, reads),
            _rank_sums(found, bounds, disc_degree)[1],
            gathered_edges=gathered, chunk_rounds=rounds,
        )

    def _scan(self, graph, cand, in_queue, summary, per_candidate=False):
        """Early-exit scan of the ascending candidate ids ``cand``: the
        ``scan`` of :func:`scan_rank_slices`.  ``in_queue`` and
        ``summary`` are the level's byte tables (:func:`_byte_tables`;
        ``summary`` None without one).  With ``per_candidate`` the
        examined and in_queue-read counts come back as per-candidate
        arrays instead of totals: a row examines its cells up to its hit
        cell, or all of them on a miss, so only the summary-filtered
        reads build up round by round."""
        offsets, targets = graph.offsets, graph.targets
        ncand = int(cand.size)
        first_parent = np.full(ncand, -1, dtype=np.int64)
        # The not-yet-retired candidates (indices into the candidate
        # arrays, always ascending, so retirement order matches candidate
        # order), each one's next untested cell and its untested cells.
        active = np.arange(ncand, dtype=np.int64)
        first, end = offsets[cand], offsets[cand + 1]
        left = end - first
        # Per candidate on request only: the cell a row exits at (its hit,
        # or its last cell) and its summary-filtered reads.
        exit_cell = cand_reads = None
        if per_candidate:
            exit_cell, cand_reads = end - 1, np.zeros(ncand, dtype=np.int64)
        examined_total = inqueue_reads = gathered = rounds = 0
        width = self.chunk
        while active.size:
            rounds += 1
            w = int(min(width, int(left.max())))
            row_len = np.minimum(left, w)  # cells each row tests
            columns = w <= _COLUMN_WIDTH
            examined, reads = (_columns if columns else _rows)(
                targets, in_queue, summary, active, first, row_len,
                first_parent, exit_cell, cand_reads,
            )
            # A column round reads a row only up to its first hit.
            gathered += examined if columns else int(row_len.sum())
            examined_total += examined
            inqueue_reads += reads
            first += row_len
            left -= row_len
            live = left > 0
            live &= first_parent[active] < 0
            active, first, left = active[live], first[live], left[live]
            width = min(width * 2, self.MAX_CHUNK)

        found = first_parent >= 0
        if per_candidate:
            examined_total = exit_cell - offsets[cand] + 1
            inqueue_reads = examined_total if summary is None else cand_reads
        parents = first_parent[found]
        return found, parents, examined_total, inqueue_reads, gathered, rounds


def _columns(
    targets, in_queue, summary, idx, first, row_len, first_parent,
    exit_cell, cand_reads,
):
    """One narrow round, column by column: candidate ``idx[i]`` tests its
    ``row_len[i]`` cells from ``first[i]`` on until its first hit.  Each
    column is one contiguous gather over the rows still going; a row
    leaves at its hit (recorded in ``first_parent``, and its cell in
    ``exit_cell`` when given) or its last cell.  Returns the
    round's examined cells and summary-filtered reads (all examined
    cells without a summary); with ``cand_reads`` given the reads are
    added per candidate there instead."""
    pos, last = first, first + row_len - 1
    examined = reads = 0
    while True:
        nb = targets[pos]
        examined += idx.size
        if summary is not None:
            lit = summary[nb]
            if cand_reads is None:
                reads += int(np.count_nonzero(lit))
            else:
                cand_reads[idx] += lit
        h = np.flatnonzero(in_queue[nb])
        if h.size:
            i = idx[h]
            first_parent[i] = nb[h]
            if exit_cell is not None:
                exit_cell[i] = pos[h]
        keep = pos < last
        keep[h] = False
        if not keep.any():
            break
        idx, last, pos = idx[keep], last[keep], pos[keep]
        pos += 1
    return examined, (examined if summary is None else reads)


def _rows(
    targets, in_queue, summary, idx, first, row_len, first_parent,
    exit_cell, cand_reads,
):
    """One wide round, row-major: the dense ``(rows, width)`` block of
    the cells each candidate tests, first hit by ``argmax`` per row; same
    arguments and outputs as :func:`_columns`.  Short rows repeat their
    last real cell, which can never fabricate a row's first hit, and
    every count is clipped to the real cells."""
    col = np.arange(int(row_len.max()), dtype=np.int64)
    pos = first[:, None] + col[None, :]
    np.minimum(pos, (first + row_len - 1)[:, None], out=pos)
    neighbors = targets[pos]
    hits = in_queue[neighbors]
    first_rel = hits.argmax(axis=1)
    has_hit = hits[np.arange(idx.size), first_rel]
    # Early-exit count: hit position inclusive, or every real cell when
    # the whole row missed.
    cnt = np.where(has_hit, first_rel + 1, row_len)
    examined = int(cnt.sum())
    reads = examined
    if summary is not None:
        # Summary-filtered reads within each early-exit prefix; the
        # prefix mask also excludes padded cells (cnt <= row_len).
        within_prefix = col[None, :] < cnt[:, None]
        within_prefix &= summary[neighbors]
        if cand_reads is None:
            reads = int(np.count_nonzero(within_prefix))
        else:
            cand_reads[idx] += within_prefix.sum(axis=1)
    rows = np.flatnonzero(has_hit)
    i = idx[rows]
    first_parent[i] = neighbors[rows, first_rel[rows]]
    if exit_cell is not None:
        exit_cell[i] = first[rows] + first_rel[rows]
    return examined, reads
