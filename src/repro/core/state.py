"""Per-rank mutable BFS state of the 2-D engine (:mod:`repro.core.twod`).

The 1-D engines keep their run state global instead — one parent
array, one unexplored-degree vector — because their kernels scan every
rank in one call."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.graph.partition import LocalGraph

__all__ = ["RankState"]


@dataclass
class RankState:
    """Everything one simulated MPI process owns during a BFS run."""

    local: LocalGraph
    # parent[i] is the global parent id of local vertex (lo + i); -1 while
    # undiscovered; the root is its own parent (Graph500 convention).
    parent: np.ndarray = field(init=False)
    # Sum of degrees of still-undiscovered local vertices; used by the
    # hybrid policy (m_u of Beamer's alpha test), maintained decrementally.
    unexplored_degree: int = field(init=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.parent = np.full(
            self.local.num_local_vertices, -1, dtype=np.int64
        )
        self.degrees = np.diff(self.local.offsets)
        self.unexplored_degree = int(self.degrees.sum())

    @property
    def rank(self) -> int:
        """This state's MPI rank."""
        return self.local.rank

    def to_local(self, vertices: np.ndarray) -> np.ndarray:
        """Translate global vertex ids owned by this rank to local ids."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (
            int(v.min()) < self.local.lo or int(v.max()) >= self.local.hi
        ):
            raise SimulationError(
                f"rank {self.rank}: vertex outside owned range "
                f"[{self.local.lo}, {self.local.hi})"
            )
        return v - self.local.lo

    def discover(self, local_ids: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Record parents for previously-unvisited local vertices.

        ``local_ids`` must be distinct (callers whose batches can repeat
        a vertex pick the winning parent first).  Returns the subset
        that was actually new — an earlier writer wins, as in the
        reference code's atomic compare-and-swap.
        """
        local_ids = np.asarray(local_ids, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        if local_ids.shape != parents.shape:
            raise SimulationError("discover: mismatched id/parent arrays")
        fresh = self.parent[local_ids] < 0
        ids = local_ids[fresh]
        self.parent[ids] = parents[fresh]
        self.unexplored_degree -= int(self.degrees[ids].sum())
        return ids

    def visited_count(self) -> int:
        """Number of discovered local vertices."""
        return int(np.count_nonzero(self.parent >= 0))
