"""Graph500-style R-MAT (Kronecker) graph generator [Chakrabarti et al.].

The paper evaluates on R-MAT graphs with the Graph500 parameters
(A, B, C, D) = (0.57, 0.19, 0.19, 0.05) and ``edgefactor = 16`` (so a
scale-32 graph has 2^32 vertices and 16 * 2^32 = 64 G undirected edges).
The generator is vectorized over chunks of ``_CHUNK`` edges.  It draws
from one PCG64 stream laid out as if each draw covered all edges at once
(per level, every column bit, then every row bit; then the label
permutation; then the direction flips), and each chunk jumps to its own
draws with ``advance``.  So temporaries stay chunk-sized, vertex ids
accumulate in int32 below scale 31, and the edge list does not depend on
the chunk size.

Vertex labels are randomly permuted by default, as mandated by the
Graph500 specification, which destroys the locality the recursive process
would otherwise put into low vertex IDs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import arc_keys, csr_from_keys
from repro.graph.types import EdgeList, Graph

__all__ = ["RmatParams", "generate_rmat_edges", "rmat_graph"]

GRAPH500_EDGEFACTOR = 16

#: Edges generated per chunk; temporaries stay this size.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class RmatParams:
    """Quadrant probabilities of the recursive matrix."""

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        if not np.isclose(total, 1.0, atol=1e-9):
            raise GraphError(f"R-MAT probabilities must sum to 1, got {total}")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise GraphError("R-MAT probabilities must be non-negative")


def generate_rmat_edges(
    scale: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
    seed: int = 1,
    permute_labels: bool = True,
) -> EdgeList:
    """Generate ``edgefactor * 2**scale`` raw edges over ``2**scale`` vertices.

    The returned edge list may contain duplicates and self-loops, exactly as
    the Graph500 generator's output does; CSR construction cleans them up.
    """
    if scale < 0:
        raise GraphError(f"scale must be non-negative, got {scale}")
    if edgefactor <= 0:
        raise GraphError(f"edgefactor must be positive, got {edgefactor}")
    n = 1 << scale
    return _generate(
        np.random.default_rng(seed), scale, edgefactor * n, params, permute_labels
    )


def _generate(
    rng: np.random.Generator,
    scale: int,
    m: int,
    params: RmatParams,
    permute_labels: bool,
) -> EdgeList:
    """Draw ``m`` R-MAT edges from ``rng``'s stream, ``_CHUNK`` at a time.

    The stream is laid out as if every draw covered all ``m`` edges: per
    level, ``m`` column draws then ``m`` row draws, then the label
    permutation, then ``m`` direction flips.  Each float64 is one 64-bit
    output, so a chunk jumps straight to its draws with ``advance``.  The
    permutation is drawn first, so every chunk is relabelled straight
    into the int64 output.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    bitgen.advance(2 * m * scale)
    perm = rng.permutation(1 << scale) if permute_labels else None
    flips = bitgen.state

    p_right = params.b + params.d  # P(column bit = 1)
    # Conditional probabilities of the row bit given the column bit.
    p_row1_given_right = params.d / p_right if p_right > 0 else 0.0
    p_row1_given_left = (
        params.c / (params.a + params.c) if (params.a + params.c) > 0 else 0.0
    )
    ids = np.int32 if scale < 31 else np.int64
    src = np.empty(m, dtype=np.int64)
    dst = np.empty(m, dtype=np.int64)
    # Chunk-sized scratch, sliced for a short last chunk.
    size = min(_CHUNK, m)
    u_buf = np.empty(size)
    col_buf, row_buf, alt_buf = (np.empty(size, dtype=bool) for _ in range(3))
    for lo in range(0, m, _CHUNK):
        c = min(_CHUNK, m - lo)
        u, col, row, alt = u_buf[:c], col_buf[:c], row_buf[:c], alt_buf[:c]
        s = np.zeros(c, dtype=ids)
        d = np.zeros(c, dtype=ids)
        bitgen.state = start
        bitgen.advance(lo)
        for _level in range(scale):
            rng.random(out=u)
            np.less(u, p_right, out=col)
            bitgen.advance(m - c)
            rng.random(out=u)
            # row = u < where(col, p_row1_given_right, p_row1_given_left),
            # selected with bit operations: a masked select over random
            # bits is branch-bound and several times slower.
            np.less(u, p_row1_given_left, out=row)
            np.less(u, p_row1_given_right, out=alt)
            alt ^= row
            alt &= col
            row ^= alt
            bitgen.advance(m - c)
            s <<= 1
            s |= row
            d <<= 1
            d |= col
        # Randomize edge direction as the reference generator does: swap
        # where flipped.  The swap commutes with the relabelling, so it
        # runs on the narrow ids.
        bitgen.state = flips
        bitgen.advance(lo)
        rng.random(out=u)
        np.less(u, 0.5, out=col)
        swap = s ^ d
        swap *= col
        s ^= swap
        d ^= swap
        if perm is None:
            src[lo : lo + c] = s
            dst[lo : lo + c] = d
        else:
            # Ids are in range; "clip" skips the buffered bounds check.
            np.take(perm, s, out=src[lo : lo + c], mode="clip")
            np.take(perm, d, out=dst[lo : lo + c], mode="clip")
    # Leave the generator where the m flip draws would: advance() also
    # clears the buffered 32-bit half-draw, which float64 draws keep.
    bitgen.state = flips
    bitgen.advance(m)
    bitgen.state = {**flips, "state": bitgen.state["state"]}
    return EdgeList(num_vertices=1 << scale, sources=src, targets=dst)


def rmat_graph(
    scale: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
    seed: int = 1,
    permute_labels: bool = True,
) -> Graph:
    """Generate an R-MAT edge list and build the CSR graph.

    The raw edge list is dropped as soon as its arc keys exist, so peak
    memory is the larger of generation and build, not their sum.
    """
    edges = generate_rmat_edges(
        scale,
        edgefactor=edgefactor,
        params=params,
        seed=seed,
        permute_labels=permute_labels,
    )
    n, raw_edges = edges.num_vertices, edges.num_edges
    key = arc_keys(edges)
    del edges
    return csr_from_keys(
        key,
        n,
        meta={
            "kind": "rmat",
            "scale": scale,
            "edgefactor": edgefactor,
            "seed": seed,
            "raw_edges": raw_edges,
        },
    )
