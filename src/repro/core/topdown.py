"""Top-down BFS step (the ``mpi_simple`` approach of the Graph500
reference code) — the numpy implementation.

Each rank expands the frontier vertices it owns: it walks their adjacency
lists and routes every (neighbour, would-be parent) pair to the
neighbour's owner; owners keep the first parent for each undiscovered
vertex.  The pair exchange is the only communication of a top-down level
(an ``alltoallv``), which is why the paper's bitmap/allgather machinery
only concerns the bottom-up phase.

:meth:`repro.core.kernels.KernelBackend.top_down_expand` is the whole
step, rank-global and fused across the lanes of a batch (a single-source
run is one lane); the engine then only prices its byte matrix with
:meth:`repro.mpi.simcomm.SimComm.alltoallv` (the pairs never move —
simulated ranks share one address space).  The default implementation,
which the numpy backends run, is :func:`step` — two stages:

1. :func:`expand_pairs` gathers the adjacency, dedups per (lane, sender)
   and counts the bytes each sender ships to each owner;
2. :func:`apply_received` plays the receivers.

The ``cnative`` backend fuses both into one C pass that materializes no
pairs at all; this module is the oracle it is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels.base import PAIR_BYTES, TopDownResult
from repro.util.segments import gather_adjacency

__all__ = [
    "DENSE_DEDUP_FRACTION",
    "TopDownPairs",
    "apply_received",
    "dedup_first_parent",
    "expand_pairs",
    "step",
]


@dataclass
class TopDownPairs:
    """Outcome of one top-down expansion: every lane, every rank.

    The five pair arrays are index-aligned and hold what the senders'
    coalescing buffers would: one (child, parent) pair per distinct
    child per (lane, sender), ordered by (lane, sender, child).
    """

    lane: np.ndarray
    sender: np.ndarray  # rank owning the parent
    owner: np.ndarray  # rank owning the child (the destination)
    child: np.ndarray
    parent: np.ndarray
    # (lanes, ranks): adjacency entries each sender walked.
    examined_edges: np.ndarray
    # (lanes, ranks, ranks): bytes sender i ships to owner j.
    send_bytes: np.ndarray


# Switch the (child, parent) dedup to the linear scatter path once the
# pair count reaches 1/DENSE_DEDUP_FRACTION of the vertex space; below
# that, zeroing two vertex-sized arrays costs more than sorting the few
# pairs.
DENSE_DEDUP_FRACTION = 8


def _dedup_sorted(
    children: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort dedup: ``O(E log E)``, no vertex-sized temporaries."""
    order = np.argsort(children, kind="stable")
    children = children[order]
    parents = parents[order]
    keep = np.empty(children.size, dtype=bool)
    keep[0] = True
    np.not_equal(children[1:], children[:-1], out=keep[1:])
    return children[keep], parents[keep]


def _dedup_dense(
    children: np.ndarray, parents: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter dedup: ``O(E + n)`` with two vertex-sized temporaries.

    Scattering the pairs in *reverse* order makes the first occurrence's
    parent the last (surviving) write, matching the stable-sort path
    exactly; ``flatnonzero`` then yields the children ascending, which is
    the owner-bucketed order the contiguous 1-D partition needs.
    """
    present = np.zeros(num_vertices, dtype=bool)
    present[children] = True
    first_parent = np.empty(num_vertices, dtype=np.int64)
    first_parent[children[::-1]] = parents[::-1]
    kept = np.flatnonzero(present)
    return kept, first_parent[kept]


def dedup_first_parent(
    children: np.ndarray, parents: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """One (child, parent) pair per distinct child, children ascending.

    For duplicate children the *first* occurrence's parent wins, as in
    the reference code's coalescing send buffers.  ``children`` may be
    any non-negative keys below ``num_vertices`` (the top-down step
    passes composite (lane, rank, vertex) keys).  Dense inputs (mid-BFS
    top-down levels, where the pair count rivals the key space) take a
    linear scatter path instead of the historic ``O(E log E)`` stable
    argsort; both paths produce bit-identical output, so the choice is
    purely a performance heuristic.
    """
    if children.size == 0:
        return children, parents
    if children.size * DENSE_DEDUP_FRACTION >= num_vertices:
        return _dedup_dense(children, parents, num_vertices)
    return _dedup_sorted(children, parents)


def expand_pairs(
    graph, frontiers: list[np.ndarray], owner_of: np.ndarray, num_ranks: int
) -> TopDownPairs:
    """Expand every lane's frontier on every rank in one pass.

    ``frontiers[b]`` holds lane ``b``'s frontier as global vertex ids
    in rank-major order (all of rank 0's members, then rank 1's, ...)
    and ``owner_of`` maps a vertex to its owning rank.  Pairs are
    deduplicated per child within each (lane, sender) — first parent
    encountered wins — as the reference code's per-destination
    coalescing buffers do; ``send_bytes`` counts what survives.
    """
    lanes = len(frontiers)
    frontier = np.concatenate(frontiers)
    lane_of = np.repeat(
        np.arange(lanes, dtype=np.int64), [f.size for f in frontiers]
    )
    sender_of = owner_of[frontier]
    gather = gather_adjacency(graph.offsets, frontier)
    examined = np.bincount(
        lane_of * num_ranks + sender_of,
        weights=gather.lens,
        minlength=lanes * num_ranks,
    )
    # One dedup group per (lane, sender): the composite key packs
    # lane | sender | child into bit fields (splitting it back is a
    # shift and a mask, not an int64 division), keeps groups apart,
    # and ascends in (lane, sender, child) order.
    child_bits = max(graph.num_vertices - 1, 1).bit_length()
    rank_bits = max(num_ranks - 1, 1).bit_length()
    key = graph.targets[gather.pos]
    key += np.repeat(
        ((lane_of << rank_bits) | sender_of) << child_bits, gather.lens
    )
    key, parent = dedup_first_parent(
        key,
        np.repeat(frontier, gather.lens),
        lanes << (rank_bits + child_bits),
    )
    child = key & ((1 << child_bits) - 1)
    sender = (key >> child_bits) & ((1 << rank_bits) - 1)
    lane = key >> (child_bits + rank_bits)
    owner = owner_of[child]
    send_pairs = np.bincount(
        (lane * num_ranks + sender) * num_ranks + owner,
        minlength=lanes * num_ranks * num_ranks,
    )
    return TopDownPairs(
        lane=lane,
        sender=sender,
        owner=owner,
        child=child,
        parent=parent,
        examined_edges=examined.astype(np.int64).reshape(lanes, num_ranks),
        send_bytes=send_pairs.reshape(lanes, num_ranks, num_ranks)
        * PAIR_BYTES,
    )


def apply_received(
    pairs: TopDownPairs,
    parent: np.ndarray,
    rows: np.ndarray,
    degrees,
    num_ranks: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Receiver side of the exchange: first writer wins, then discover.

    Every owner reads its messages sender-ascending, each sorted by
    child, and keeps the first parent offered for a still-undiscovered
    vertex — so the lowest sender wins.  ``parent`` is the C-contiguous
    ``(sources, n)`` global parent table and ``rows[b]`` the row lane
    ``b`` writes; ``degrees[v]`` answers the degree of vertex-id arrays.
    Returns each lane's next frontier as global ids in discovery order
    (owner, sender, child) — the order matters, it feeds the next
    level's dedup — and the ``(lanes, ranks)`` degree sum of what each
    owner discovered.
    """
    n = parent.shape[1]
    lanes = len(rows)
    # ``pairs`` is sorted by (lane, sender, child), so the first
    # occurrence of a (lane, child) is its lowest sender.
    key, first = dedup_first_parent(
        pairs.lane * n + pairs.child,
        np.arange(pairs.child.size, dtype=np.int64),
        lanes * n,
    )
    # key // n without the int64 division: keys ascend, so lanes are runs.
    lane = np.repeat(
        np.arange(lanes, dtype=np.int64),
        np.diff(np.searchsorted(key, np.arange(lanes + 1) * n)),
    )
    child = key - lane * n
    cell = rows[lane] * n + child  # into the flattened parent table
    table = parent.reshape(-1)
    fresh = table[cell] < 0
    lane, child, first = lane[fresh], child[fresh], first[fresh]
    table[cell[fresh]] = pairs.parent[first]

    # Winners are in (lane, child) — hence (lane, owner, child) — order;
    # a stable sort on (lane, owner, sender) yields discovery order.
    group = lane * num_ranks + pairs.owner[first]
    order = np.argsort(group * num_ranks + pairs.sender[first], kind="stable")
    lane, child, group = lane[order], child[order], group[order]
    disc_degree = np.bincount(
        group, weights=degrees[child], minlength=lanes * num_ranks
    )
    cuts = np.searchsorted(lane, np.arange(lanes + 1))
    frontiers = [child[cuts[b]:cuts[b + 1]] for b in range(lanes)]
    return frontiers, disc_degree.astype(np.int64).reshape(lanes, num_ranks)


class _RowLengths:
    """``degrees[v]`` straight from CSR offsets, for vertex-id arrays:
    :func:`apply_received` reads only its winners' degrees, and a full
    ``np.diff(offsets)`` per level costs more than a sparse level of a
    large graph."""

    def __init__(self, offsets: np.ndarray) -> None:
        self.offsets = offsets

    def __getitem__(self, v: np.ndarray) -> np.ndarray:
        return self.offsets[v + 1] - self.offsets[v]


def step(
    graph, frontiers, parent, rows, owner_of, bounds
) -> TopDownResult:
    """The default :meth:`~repro.core.kernels.KernelBackend.top_down_expand`:
    :func:`expand_pairs`, then :func:`apply_received`."""
    num_ranks = len(bounds) - 1
    pairs = expand_pairs(graph, frontiers, owner_of, num_ranks)
    next_frontiers, disc_degree = apply_received(
        pairs, parent, rows, _RowLengths(graph.offsets), num_ranks
    )
    return TopDownResult(
        next_frontiers, pairs.examined_edges, pairs.send_bytes, disc_degree
    )
