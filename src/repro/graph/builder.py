"""Construction of CSR :class:`~repro.graph.types.Graph` objects from raw
edge lists.

Mirrors the preprocessing of the Graph500 reference code: the generator's
edge list is symmetrized, self-loops are dropped, duplicate edges are
merged, and the adjacency of every vertex is sorted.

All four steps are one in-place sort of one int64 key per directed arc,
``src * n + dst``: sorted keys are grouped by source with targets
ascending, equal keys are identical arcs (so dropping a key equal to its
predecessor deduplicates, and sort stability is never observable), and
``a * n + b = b - a (mod n + 1)`` makes a self-loop exactly a key divisible
by ``n + 1``.  The row offsets are a ``searchsorted`` of ``v * n`` and the
targets are the keys modulo ``n``, computed in place, so the build holds
one arc-sized array at a time.
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
    ``src * n + dst`` for every edge, then ``dst * n + src``."""
    n = edges.num_vertices
    if n > _MAX_VERTICES:
        raise GraphError(
            f"{n} vertices overflow the int64 arc key src * n + dst "
            f"(at most {_MAX_VERTICES})"
        )
    src = edges.sources.astype(np.int64, copy=False)
    dst = edges.targets.astype(np.int64, copy=False)
    m = src.size
    key = np.empty(2 * m, dtype=np.int64)
    fwd, rev = key[:m], key[m:]
    np.multiply(src, n, out=fwd)
    fwd += dst
    np.multiply(dst, n, out=rev)
    rev += src
    return key


def csr_from_keys(key: np.ndarray, n: int, meta: dict | None = None) -> Graph:
    """Sort, deduplicate and decode the arc keys of :func:`arc_keys` into a
    CSR graph over ``n`` vertices.  ``key`` is consumed: its buffer becomes
    the graph's ``targets``."""
    key.sort()
    # Shrinking reallocates in place and leaves an owned, contiguous
    # buffer; the block views of _compact are gone by now.
    key.resize(_compact(key, n), refcheck=False)
    offsets = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    if key.size:
        np.remainder(key, n, out=key)
    graph = Graph(
        num_vertices=n, offsets=offsets, targets=key, meta=dict(meta or {})
    )
    _check_csr_invariants(graph)
    return graph


def _compact(key: np.ndarray, n: int) -> int:
    """Move the sorted keys worth keeping to the front of ``key``, block by
    block, and return how many there are.  A key goes if it repeats its
    predecessor or is a self-loop (divisible by ``n + 1``)."""
    kept = 0
    for lo in range(0, key.size, _BLOCK):
        block = key[lo : lo + _BLOCK]
        keep = block % (n + 1) != 0
        keep[1:] &= block[1:] != block[:-1]
        if lo:
            # key[lo - 1] is still the original: kept <= lo.
            keep[0] &= block[0] != key[lo - 1]
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
