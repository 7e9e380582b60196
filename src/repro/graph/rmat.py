"""Graph500-style R-MAT (Kronecker) graph generator [Chakrabarti et al.].

The paper evaluates on R-MAT graphs with the Graph500 parameters
(A, B, C, D) = (0.57, 0.19, 0.19, 0.05) and ``edgefactor = 16`` (so a
scale-32 graph has 2^32 vertices and 16 * 2^32 = 64 G undirected edges).
The generator is vectorized over chunks of ``_CHUNK`` edges.  It draws
from one PCG64 stream laid out as if each draw covered all edges at once
(per level, every column bit, then every row bit; then the label
permutation; then the direction flips), and each chunk jumps to its own
draws with ``advance``.  So temporaries stay chunk-sized, vertex ids
accumulate in int32 below scale 31, and the edge list depends neither on
the chunk size nor on the order the chunks run in.

The chunks run on one worker per usable CPU (the process's affinity
mask), at most one per chunk, the calling thread among them; one chunk
or one CPU starts no thread.  Each worker owns a PCG64 set from the
saved stream states (a shared generator's lock would serialize them)
and writes disjoint slices of the output.  The chunk loop has two
sinks: :func:`generate_rmat_edges` gets the relabelled int64 edge list,
and :func:`rmat_graph` gets the ``2 m`` arc keys of
:func:`~repro.graph.builder.arc_keys` for the CSR build, so no edge list
is ever held for a graph.

Vertex labels are randomly permuted by default, as mandated by the
Graph500 specification, which destroys the locality the recursive process
would otherwise put into low vertex IDs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import _check_vertex_count, _fill_arc_keys, csr_from_keys
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
    return _generate(
        np.random.default_rng(seed),
        scale,
        _num_edges(scale, edgefactor),
        params,
        permute_labels,
    )


def _num_edges(scale: int, edgefactor: int) -> int:
    if scale < 0:
        raise GraphError(f"scale must be non-negative, got {scale}")
    if edgefactor <= 0:
        raise GraphError(f"edgefactor must be positive, got {edgefactor}")
    return edgefactor * (1 << scale)


def _usable_cpus() -> int:
    """The CPUs this process may run on: the generator's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _generate(
    rng: np.random.Generator,
    scale: int,
    m: int,
    params: RmatParams,
    permute_labels: bool,
    arcs: bool = False,
):
    """Draw ``m`` R-MAT edges from ``rng``'s stream, ``_CHUNK`` at a time.

    The stream is laid out as if every draw covered all ``m`` edges: per
    level, ``m`` column draws then ``m`` row draws, then the label
    permutation, then ``m`` direction flips.  Each float64 is one 64-bit
    output, so a chunk jumps straight to its draws with ``advance``, and
    the chunks can run in any order: worker ``k`` of ``w`` takes chunks
    ``k, k + w, ...`` on a private generator set from the saved states.
    The permutation is drawn first, so every chunk is relabelled straight
    into the output: the int64 edge list, or with ``arcs`` the ``2 m``
    arc keys of :func:`~repro.graph.builder.arc_keys`.  ``rng`` ends
    where one pass over the whole stream would leave it.
    """
    n = 1 << scale
    if arcs:
        _check_vertex_count(n)
    bitgen = rng.bit_generator
    start = bitgen.state
    bitgen.advance(2 * m * scale)
    perm = rng.permutation(n) if permute_labels else None
    flips = bitgen.state
    # Leave the generator where the m flip draws would: advance() also
    # clears the buffered 32-bit half-draw, which float64 draws keep.
    bitgen.advance(m)
    bitgen.state = {**flips, "state": bitgen.state["state"]}

    p_right = params.b + params.d  # P(column bit = 1)
    # Conditional probabilities of the row bit given the column bit.
    p_row1_given_right = params.d / p_right if p_right > 0 else 0.0
    p_row1_given_left = (
        params.c / (params.a + params.c) if (params.a + params.c) > 0 else 0.0
    )
    ids = np.int32 if scale < 31 else np.int64
    if arcs:
        key = np.empty(2 * m, dtype=np.int64)
    else:
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)

    def relabel(x: np.ndarray, out: np.ndarray) -> None:
        if perm is None:
            np.copyto(out, x)
        else:
            # Ids are in range; "clip" skips the buffered bounds check.
            np.take(perm, x, out=out, mode="clip")

    def work(first: int, step: int) -> None:
        own = np.random.Generator(type(bitgen)())
        own_bits = own.bit_generator
        # Chunk-sized scratch, sliced for a short last chunk.
        size = min(_CHUNK, m)
        u_buf = np.empty(size)
        col_buf, row_buf, alt_buf = (np.empty(size, dtype=bool) for _ in range(3))
        s_buf, d_buf = (np.empty(size, dtype=ids) for _ in range(2))
        if arcs:
            ps_buf, pd_buf = (np.empty(size, dtype=np.int64) for _ in range(2))
        for lo in range(first * _CHUNK, m, step * _CHUNK):
            c = min(_CHUNK, m - lo)
            u, col, row, alt = u_buf[:c], col_buf[:c], row_buf[:c], alt_buf[:c]
            s, d = s_buf[:c], d_buf[:c]
            s.fill(0)
            d.fill(0)
            own_bits.state = start
            own_bits.advance(lo)
            for _level in range(scale):
                own.random(out=u)
                np.less(u, p_right, out=col)
                own_bits.advance(m - c)
                own.random(out=u)
                # row = u < where(col, p_row1_given_right, p_row1_given_left),
                # selected with bit operations: a masked select over random
                # bits is branch-bound and several times slower.
                np.less(u, p_row1_given_left, out=row)
                np.less(u, p_row1_given_right, out=alt)
                alt ^= row
                alt &= col
                row ^= alt
                own_bits.advance(m - c)
                s <<= 1
                s |= row
                d <<= 1
                d |= col
            # Randomize edge direction as the reference generator does: swap
            # where flipped.  The swap commutes with the relabelling, so it
            # runs on the narrow ids.
            own_bits.state = flips
            own_bits.advance(lo)
            own.random(out=u)
            np.less(u, 0.5, out=col)
            swap = s ^ d
            swap *= col
            s ^= swap
            d ^= swap
            if arcs:
                ps, pd = ps_buf[:c], pd_buf[:c]
                relabel(s, ps)
                relabel(d, pd)
                _fill_arc_keys(ps, pd, n, key[lo : lo + c], key[m + lo : m + lo + c])
            else:
                relabel(s, src[lo : lo + c])
                relabel(d, dst[lo : lo + c])

    # The calling thread is worker 0, so at most that many threads run;
    # each writes disjoint slices, and the pool is joined on exit.
    workers = min(_usable_cpus(), -(-m // _CHUNK))
    if workers <= 1:
        work(0, 1)
    else:
        with ThreadPoolExecutor(workers - 1, thread_name_prefix="rmat") as pool:
            rest = [pool.submit(work, k, workers) for k in range(1, workers)]
            work(0, workers)
        for future in rest:
            future.result()
    if arcs:
        return key
    return EdgeList(num_vertices=n, sources=src, targets=dst)


def rmat_graph(
    scale: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
    seed: int = 1,
    permute_labels: bool = True,
) -> Graph:
    """Generate an R-MAT graph and build its CSR.

    The generator writes the arc keys of :func:`generate_rmat_edges`'
    edge list straight from its chunks, so the edge list never exists and
    peak memory is the one key array the build sorts in place.
    """
    m = _num_edges(scale, edgefactor)
    key = _generate(
        np.random.default_rng(seed), scale, m, params, permute_labels, arcs=True
    )
    return csr_from_keys(
        key,
        1 << scale,
        meta={
            "kind": "rmat",
            "scale": scale,
            "edgefactor": edgefactor,
            "seed": seed,
            "raw_edges": m,
        },
    )
