"""Construction of CSR :class:`~repro.graph.types.Graph` objects from raw
edge lists.

Mirrors the preprocessing of the Graph500 reference code: the generator's
edge list is symmetrized, self-loops are dropped, duplicate edges are
merged, and the adjacency of every vertex is sorted.

All four steps are one in-place sort of one int64 key per directed arc,
``src * n + dst``: sorted keys are grouped by source with targets
ascending, and equal keys are identical arcs (so dropping a key equal to
its predecessor deduplicates, and sort stability is never observable).
A self-loop's arcs get the negative key ``_LOOP_KEY`` instead, so they
sort first and the compaction starts after them.  The row offsets are a
``searchsorted`` of ``v * n`` and the targets are the keys modulo ``n``
(a mask when ``n`` is a power of two), computed in place, so the build
holds one arc-sized array at a time.  :func:`~repro.graph.rmat.rmat_graph`
writes the keys straight from its generator, so an R-MAT build never
holds the edge list either.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.types import EdgeList, Graph

__all__ = ["build_graph", "from_edge_arrays"]

#: Arcs per block of the compaction pass and of the invariant check, so
#: their temporaries stay small however large the graph.
_BLOCK = 1 << 20

#: ``src * n + dst`` must fit in int64: n * n <= 2**63 - 1.
_MAX_VERTICES = 3_037_000_499

#: The arc key of a self-loop: it sorts before every real key.
_LOOP_KEY = -1


def from_edge_arrays(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    meta: dict | None = None,
) -> Graph:
    """Build a :class:`Graph` from parallel source/target arrays."""
    edges = EdgeList(
        num_vertices=num_vertices,
        sources=np.asarray(sources, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
    )
    return build_graph(edges, meta=meta)


def build_graph(edges: EdgeList, meta: dict | None = None) -> Graph:
    """Symmetrize, deduplicate, drop self-loops and produce sorted CSR."""
    return csr_from_keys(arc_keys(edges), edges.num_vertices, meta)


def arc_keys(edges: EdgeList) -> np.ndarray:
    """One int64 key per directed arc of the symmetrized edge list:
    ``src * n + dst`` for every edge, then ``dst * n + src``; a self-loop
    is ``_LOOP_KEY`` in both halves."""
    n = edges.num_vertices
    _check_vertex_count(n)
    src = edges.sources.astype(np.int64, copy=False)
    dst = edges.targets.astype(np.int64, copy=False)
    m = src.size
    key = np.empty(2 * m, dtype=np.int64)
    _fill_arc_keys(src, dst, n, key[:m], key[m:])
    return key


def _check_vertex_count(n: int) -> None:
    if n > _MAX_VERTICES:
        raise GraphError(
            f"{n} vertices overflow the int64 arc key src * n + dst "
            f"(at most {_MAX_VERTICES})"
        )


def _fill_arc_keys(
    src: np.ndarray, dst: np.ndarray, n: int, fwd: np.ndarray, rev: np.ndarray
) -> None:
    """Write the int64 edges' forward keys into ``fwd`` and their reverse
    keys into ``rev``, with ``_LOOP_KEY`` for a self-loop."""
    np.multiply(src, n, out=fwd)
    fwd += dst
    np.multiply(dst, n, out=rev)
    rev += src
    loop = src == dst
    np.copyto(fwd, _LOOP_KEY, where=loop)
    np.copyto(rev, _LOOP_KEY, where=loop)


def csr_from_keys(key: np.ndarray, n: int, meta: dict | None = None) -> Graph:
    """Sort, deduplicate and decode the arc keys of :func:`arc_keys` into a
    CSR graph over ``n`` vertices.  ``key`` is consumed: its buffer becomes
    the graph's ``targets``."""
    key.sort()
    loops = int(np.searchsorted(key, 0))  # their negative keys sort first
    # Shrinking reallocates in place and leaves an owned, contiguous
    # buffer; the block views of _compact are gone by now.
    key.resize(_compact(key, loops), refcheck=False)
    offsets = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    if n & (n - 1) == 0:
        # Every R-MAT graph's n is a power of two: mask, do not divide.
        np.bitwise_and(key, n - 1, out=key)
    else:
        np.remainder(key, n, out=key)
    graph = Graph(
        num_vertices=n, offsets=offsets, targets=key, meta=dict(meta or {})
    )
    _check_csr_invariants(graph)
    return graph


def _compact(key: np.ndarray, start: int) -> int:
    """Move the sorted keys from ``start`` on, less those that repeat
    their predecessor, to the front of ``key``, block by block, and
    return how many there are."""
    kept = 0
    for lo in range(start, key.size, _BLOCK):
        block = key[lo : lo + _BLOCK]
        keep = np.empty(block.size, dtype=bool)
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        # key[lo - 1] is still the original: kept <= lo - start.
        keep[0] = lo == start or block[0] != key[lo - 1]
        block = block[keep]
        key[kept : kept + block.size] = block
        kept += block.size
    return kept


def _arc_rows(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The row (source vertex) of each arc in ``[lo, hi)``, ``lo < hi``."""
    r0 = int(np.searchsorted(offsets, lo, side="right")) - 1
    r1 = int(np.searchsorted(offsets, hi - 1, side="right"))
    bounds = np.clip(offsets[r0 : r1 + 1], lo, hi)
    return np.repeat(np.arange(r0, r1, dtype=np.int64), np.diff(bounds))


def _check_csr_invariants(graph: Graph) -> None:
    """Cheap invariant checks: adjacency sorted, no self loops.

    Works in blocks of arcs, so its temporaries stay block-sized.  Within
    a row the targets must strictly increase; across a row boundary (the
    start of any row, empty rows included) they may do anything.
    """
    offsets, t = graph.offsets, graph.targets
    for lo in range(0, t.size, _BLOCK):
        hi = min(lo + _BLOCK, t.size)
        # Rows owning arcs lo-1 .. hi-1 (arc lo-1 links the blocks).
        first = max(lo - 1, 0)
        rows = _arc_rows(offsets, first, hi)
        tb = t[first:hi]
        if np.any((tb[1:] <= tb[:-1]) & (rows[1:] == rows[:-1])):
            raise GraphError("CSR adjacency is not sorted/deduplicated")
        if np.any(rows == tb):
            raise GraphError("CSR contains self loops")


def _check_symmetric(graph: Graph) -> None:
    """Every arc (u, v) has its reverse (v, u).

    Needs rows sorted and deduplicated (:func:`_check_csr_invariants`)
    and targets in range.  Only the up arcs (u < v) are looked up: if
    each has its reverse and there are as many down arcs, the pairing
    is one-to-one and covers every arc.  Works in blocks of arcs: a
    block's up arcs bisect their target's row for their source in step,
    so the temporaries stay block-sized.
    """
    offsets, t = graph.offsets, graph.targets
    up = down = 0
    for lo in range(0, t.size, _BLOCK):
        hi = min(lo + _BLOCK, t.size)
        u, v = _arc_rows(offsets, lo, hi), t[lo:hi]
        is_up = u < v
        down += int(np.count_nonzero(v < u))
        u, v = u[is_up], v[is_up]
        up += u.size
        a, b = offsets[v], offsets[v + 1]
        while True:
            open_ = a < b
            if not open_.any():
                break
            mid = (a + b) // 2
            below = open_ & (t[np.where(open_, mid, 0)] < u)
            a = np.where(below, mid + 1, a)
            b = np.where(open_ & ~below, mid, b)
        found = a < offsets[v + 1]
        found[found] = t[a[found]] == u[found]
        if not found.all():
            i = int(np.argmin(found))
            raise GraphError(
                f"CSR is not symmetric: arc ({int(u[i])}, {int(v[i])}) has "
                f"no reverse arc",
                vertex=int(u[i]),
            )
    if up != down:
        raise GraphError(
            f"CSR is not symmetric: {down} arcs point down (u > v) but "
            f"{up} point up"
        )
