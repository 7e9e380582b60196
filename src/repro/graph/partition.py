"""1-D block partitioning of the vertex space across MPI ranks.

The paper follows the Graph500 reference code: the graph is partitioned
into ``np`` contiguous vertex ranges, one per MPI process; each process
stores the adjacency (CSR rows) of its local vertices.  With one process
per socket and socket binding, this is exactly the "graph is naturally
partitioned into 8 parts" placement of Section II.D.3.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.types import Graph

__all__ = [
    "Partition1D",
    "degree_balanced_bounds",
    "word_aligned_bounds",
]


class Partition1D:
    """Block partition of ``num_vertices`` vertices over ``num_parts`` ranks.

    By default uses the balanced block rule (part sizes differ by at most
    one vertex); custom split points can be supplied via ``bounds`` — see
    :func:`degree_balanced_bounds` for the edge-balancing extension.
    """

    def __init__(
        self,
        num_vertices: int,
        num_parts: int,
        bounds: np.ndarray | None = None,
    ) -> None:
        if num_parts < 1:
            raise ConfigError(f"num_parts must be >= 1, got {num_parts}")
        if num_vertices < 0:
            raise ConfigError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self.num_parts = num_parts
        if bounds is None:
            base = num_vertices // num_parts
            extra = num_vertices % num_parts
            sizes = np.full(num_parts, base, dtype=np.int64)
            sizes[:extra] += 1
            bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        else:
            bounds = np.asarray(bounds, dtype=np.int64)
            if (
                bounds.shape != (num_parts + 1,)
                or bounds[0] != 0
                or bounds[-1] != num_vertices
                or np.any(np.diff(bounds) < 0)
            ):
                raise ConfigError(
                    "bounds must be a non-decreasing array of length "
                    "num_parts + 1 spanning [0, num_vertices]"
                )
        self._bounds = bounds

    @property
    def bounds(self) -> np.ndarray:
        """Array of length num_parts + 1; part p owns [bounds[p], bounds[p+1])."""
        return self._bounds

    def range_of(self, part: int) -> tuple[int, int]:
        """Half-open global vertex range owned by ``part``."""
        if not 0 <= part < self.num_parts:
            raise ConfigError(f"part {part} out of range [0, {self.num_parts})")
        return int(self._bounds[part]), int(self._bounds[part + 1])

    def size_of(self, part: int) -> int:
        """Number of vertices owned by ``part``."""
        lo, hi = self.range_of(part)
        return hi - lo

    def owner(self, vertices: np.ndarray | int) -> np.ndarray | int:
        """Owning part of vertex id(s)."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (int(v.min()) < 0 or int(v.max()) >= self.num_vertices):
            raise GraphError("vertex id out of range in owner()")
        result = np.searchsorted(self._bounds, v, side="right") - 1
        if np.isscalar(vertices) or np.ndim(vertices) == 0:
            return int(result)
        return result.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partition1D(num_vertices={self.num_vertices}, "
            f"num_parts={self.num_parts})"
        )


def word_aligned_bounds(
    num_vertices: int, num_parts: int, alignment: int = 64
) -> np.ndarray:
    """Near-uniform split points rounded to ``alignment`` boundaries.

    The BFS engine's frontier bitmap parts must start at word boundaries
    so their concatenation is the full bitmap; this gives every rank a
    word-aligned range of (almost) equal size for *any* rank count, not
    just divisors of the vertex count.
    """
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    if alignment < 1:
        raise ConfigError("alignment must be >= 1")
    if num_vertices % alignment != 0:
        raise ConfigError(
            f"num_vertices={num_vertices} must be a multiple of "
            f"alignment={alignment}"
        )
    blocks = num_vertices // alignment
    cuts = np.rint(
        blocks * np.arange(num_parts + 1, dtype=np.float64) / num_parts
    ).astype(np.int64)
    return cuts * alignment


def degree_balanced_bounds(
    graph: Graph, num_parts: int, alignment: int = 64
) -> np.ndarray:
    """Split points that balance *edges* per part instead of vertices.

    An extension beyond the paper: R-MAT degree skew leaves the uniform
    block partition with unequal edge work per rank (the paper's "stall"
    phase).  This chooses bounds so every part holds roughly the same
    adjacency mass, rounded to ``alignment``-vertex boundaries so the
    frontier bitmap parts stay word-aligned.
    """
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    if alignment < 1:
        raise ConfigError("alignment must be >= 1")
    n = graph.num_vertices
    if n % alignment != 0:
        raise ConfigError(
            f"num_vertices={n} must be a multiple of alignment={alignment}"
        )
    # Weight per vertex: its arcs plus 1 (so empty stretches still cost
    # their scan work).
    weights = graph.degrees() + 1
    csum = np.concatenate([[0], np.cumsum(weights, dtype=np.int64)])
    targets = csum[-1] * np.arange(1, num_parts, dtype=np.float64) / num_parts
    cuts = np.searchsorted(csum, targets, side="left")
    # Round to alignment, then clip to [0, n] and make the bounds
    # non-decreasing; equal neighbours give an empty part, which is legal.
    cuts = np.rint(cuts / alignment).astype(np.int64) * alignment
    bounds = np.concatenate([[0], cuts, [n]])
    bounds = np.maximum.accumulate(np.clip(bounds, 0, n))
    return bounds.astype(np.int64)
