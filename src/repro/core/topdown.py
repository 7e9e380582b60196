"""Top-down BFS step (the ``mpi_simple`` approach of the Graph500
reference code).

Each rank expands the frontier vertices it owns: it walks their adjacency
lists and routes every (neighbour, would-be parent) pair to the
neighbour's owner; owners keep the first parent for each undiscovered
vertex.  The pair exchange is the only communication of a top-down level
(an ``alltoallv``), which is why the paper's bitmap/allgather machinery
only concerns the bottom-up phase.

There is one implementation, rank-global and fused across the lanes of a
batch (a single-source run is one lane), in three stages:

1. :meth:`repro.core.kernels.KernelBackend.top_down_expand` gathers the
   adjacency, dedups per (lane, sender) and counts the bytes each sender
   ships to each owner;
2. :meth:`repro.mpi.simcomm.SimComm.alltoallv` prices that byte matrix
   (the pairs themselves stay where the expansion left them — simulated
   ranks share one address space);
3. :func:`apply_received` (here) plays the receivers.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import TopDownPairs, dedup_first_parent

__all__ = ["apply_received"]


def apply_received(
    pairs: TopDownPairs,
    parent: np.ndarray,
    rows: np.ndarray,
    degrees: np.ndarray,
    num_ranks: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Receiver side of the exchange: first writer wins, then discover.

    Every owner reads its messages sender-ascending, each sorted by
    child, and keeps the first parent offered for a still-undiscovered
    vertex — so the lowest sender wins.  ``parent`` is the C-contiguous
    ``(sources, n)`` global parent table and ``rows[b]`` the row lane
    ``b`` writes.  Returns each lane's next frontier as global ids in
    discovery order (owner, sender, child) — the order matters, it
    feeds the next level's dedup — and the ``(lanes, ranks)`` degree sum
    of what each owner discovered.
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
