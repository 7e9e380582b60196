"""Graph construction: pinned R-MAT graphs and the builder's properties.

``GOLDEN_GRAPH`` was generated at commit ``c10466b``, before
``build_graph`` sorted arc keys in place and before the R-MAT generator ran
in chunks.  Per case it pins the sha256 of the raw int64 edge list
(``generate_rmat_edges``) and the ``graph_digest`` of the CSR
(``rmat_graph``), so a change to either stage that moves a single edge or
reorders a single row shows here, at every scale below, instead of only
through the BFS digests of ``test_golden_bfs.py`` at scales 12–13.

The rest of the file checks ``build_graph`` against a set-based oracle,
the chunked generator against a single-pass one drawing the same stream,
the PCG64 jump-ahead contract that chunking relies on, and
``_check_csr_invariants`` on hand-built bad graphs.

Regenerate the table (only when a change is *meant* to move the graphs)::

    PYTHONPATH=src python tests/test_graph_build.py
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prepared import graph_digest
from repro.errors import GraphError
from repro.graph import builder, rmat
from repro.graph.builder import _check_csr_invariants, arc_keys, build_graph
from repro.graph.rmat import RmatParams, generate_rmat_edges, rmat_graph
from repro.graph.types import EdgeList, Graph

#: case id -> keyword arguments of ``generate_rmat_edges``/``rmat_graph``
CASES = {
    "s0": dict(scale=0),
    "s1-seed3": dict(scale=1, seed=3),
    "s7-ef5": dict(scale=7, edgefactor=5, seed=2),
    "s12-seed1": dict(scale=12, seed=1),
    "s12-seed2": dict(scale=12, seed=2),
    "s14-seed4": dict(scale=14, seed=4),
    "s16-seed1": dict(scale=16, seed=1),
    "s10-unpermuted": dict(scale=10, seed=5, permute_labels=False),
    "s10-params": dict(scale=10, seed=6, params=RmatParams(0.45, 0.25, 0.2, 0.1)),
    "s9-d0": dict(scale=9, seed=7, params=RmatParams(0.6, 0.25, 0.15, 0.0)),
    "s8-no-right": dict(scale=8, seed=8, params=RmatParams(0.7, 0.0, 0.3, 0.0)),
    "s8-no-left": dict(scale=8, seed=9, params=RmatParams(0.0, 0.6, 0.0, 0.4)),
    "s18-seed1": dict(scale=18, seed=1),
}

SLOW_CASES = {"s18-seed1"}

#: case id -> (edge-list sha256, graph_digest)
GOLDEN_GRAPH = {
    "s0": ("6a3fa44c4de1074f", "f80084d5ed9ac4fb"),
    "s1-seed3": ("d0b934889124abd5", "e07388b149081314"),
    "s7-ef5": ("18bf27686aac7314", "f53efad258043ca7"),
    "s12-seed1": ("551aa3a9404a4e62", "8579566bbebd328d"),
    "s12-seed2": ("27bd77a7e01fd1a9", "6e90c1c0cc860eb1"),
    "s14-seed4": ("f97af35fec7c71a1", "c8d1e6634065ded5"),
    "s16-seed1": ("bcdbb1b20fb0d3bb", "a5d531283dfe24a1"),
    "s10-unpermuted": ("552166d6c14c423f", "5c2c903a52014a53"),
    "s10-params": ("bbfa329dd01ae62f", "9837241e1b915c5f"),
    "s9-d0": ("16297c0489fd01fd", "758aecfc199b6fdd"),
    "s8-no-right": ("5bc39e9a18c931ca", "5c058d1eb23e455d"),
    "s8-no-left": ("88b3ee320b3ccb76", "101ad19c80648e3f"),
    "s18-seed1": ("71fc6b2433625a1c", "ac7f62cf51c4d332"),
}


def edge_digest(edges) -> str:
    """sha256 (16 hex digits) of the vertex count and the int64 endpoints."""
    h = hashlib.sha256()
    h.update(str(edges.num_vertices).encode())
    h.update(np.ascontiguousarray(edges.sources, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(edges.targets, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def case_digests(case_id: str) -> tuple:
    kwargs = CASES[case_id]
    return (
        edge_digest(generate_rmat_edges(**kwargs)),
        graph_digest(rmat_graph(**kwargs)),
    )


@pytest.mark.parametrize(
    "case_id",
    [
        pytest.param(c, marks=pytest.mark.slow) if c in SLOW_CASES else c
        for c in CASES
    ],
)
def test_golden_graph(case_id):
    assert case_digests(case_id) == GOLDEN_GRAPH[case_id]


@pytest.mark.parametrize(
    "case_id",
    [
        pytest.param(c, marks=pytest.mark.slow) if c in SLOW_CASES else c
        for c in CASES
    ],
)
def test_fused_build_matches_edge_list_build(case_id):
    """``rmat_graph`` writes arc keys straight from the generator; it
    must build the graph ``build_graph`` builds from the edge list."""
    kwargs = CASES[case_id]
    fused = rmat_graph(**kwargs)
    edges = generate_rmat_edges(**kwargs)
    via_edges = build_graph(edges)
    assert fused.num_vertices == via_edges.num_vertices
    np.testing.assert_array_equal(fused.offsets, via_edges.offsets)
    np.testing.assert_array_equal(fused.targets, via_edges.targets)
    assert fused.meta["raw_edges"] == edges.num_edges


# -- build_graph against a set-based oracle ---------------------------------


def oracle_csr(n: int, pairs) -> tuple:
    """Symmetrize, drop self-loops, dedupe and sort with Python sets."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    offsets = np.cumsum([0] + [len(a) for a in adj])
    targets = [t for a in adj for t in sorted(a)]
    return np.asarray(offsets, dtype=np.int64), np.asarray(targets, dtype=np.int64)


def assert_matches_oracle(n: int, pairs) -> None:
    pairs = list(pairs)
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    g = build_graph(EdgeList(num_vertices=n, sources=src, targets=dst))
    offsets, targets = oracle_csr(n, pairs)
    for got, want in ((g.offsets, offsets), (g.targets, targets)):
        assert got.dtype == np.int64
        assert got.flags.c_contiguous and got.flags.owndata
        np.testing.assert_array_equal(got, want)


@st.composite
def edge_lists(draw):
    """Edges over 1..300 vertices, drawn from a few hot vertices as often
    as from all of them, so duplicates and self-loops are common."""
    n = draw(st.integers(1, 300))
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    vertex = st.one_of(st.sampled_from(hot), st.integers(0, n - 1))
    edge = st.one_of(st.tuples(vertex, vertex), vertex.map(lambda v: (v, v)))
    return n, draw(st.lists(edge, max_size=300))


class TestBuildGraph:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_matches_oracle(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_edge_list(self, n):
        assert_matches_oracle(n, [])

    def test_only_self_loops(self):
        assert_matches_oracle(1, [(0, 0)] * 7)
        assert_matches_oracle(6, [(v, v) for v in range(6)] * 3)

    @pytest.mark.parametrize("block", [1, 3, 1 << 20])
    def test_self_loops_among_edges(self, monkeypatch, block):
        """Loops at the lowest and highest vertex, repeated, around real
        edges: the sorted loop keys are skipped whatever the blocks."""
        monkeypatch.setattr(builder, "_BLOCK", block)
        n = 9
        loops = [(0, 0), (8, 8), (4, 4)] * 3
        assert_matches_oracle(n, loops + [(0, 8), (8, 0), (3, 4), (0, 1)] + loops)

    def test_self_loop_keys_are_the_sentinel(self):
        edges = EdgeList(
            num_vertices=5,
            sources=np.array([2, 0, 4], dtype=np.int64),
            targets=np.array([2, 3, 4], dtype=np.int64),
        )
        loop = builder._LOOP_KEY
        assert loop < 0
        assert arc_keys(edges).tolist() == [loop, 3, loop, loop, 15, loop]

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_block_boundaries(self, monkeypatch, block):
        """Dedup and the invariant check must stitch blocks together."""
        monkeypatch.setattr(builder, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in (1, 2, 7, 31):
            pairs = rng.integers(0, n, size=(3 * n, 2))
            assert_matches_oracle(n, map(tuple, pairs.tolist()))

    def test_int32_input(self):
        g = build_graph(
            EdgeList(
                num_vertices=70000,
                sources=np.array([69999, 5], dtype=np.int32),
                targets=np.array([69998, 69999], dtype=np.int32),
            )
        )
        assert g.neighbors(69999).tolist() == [5, 69998]


class TestKeyOverflow:
    def test_guard_fires_before_allocating(self):
        edges = EdgeList(
            num_vertices=2**32,
            sources=np.array([0, 2**32 - 1], dtype=np.int64),
            targets=np.array([1, 7], dtype=np.int64),
        )
        with pytest.raises(GraphError, match="overflow"):
            build_graph(edges)

    def test_largest_vertex_count_keeps_exact_keys(self):
        n = builder._MAX_VERTICES
        assert n * n <= np.iinfo(np.int64).max < (n + 1) * (n + 1)
        edges = EdgeList(
            num_vertices=n,
            sources=np.array([n - 1, 0], dtype=np.int64),
            targets=np.array([n - 2, n - 1], dtype=np.int64),
        )
        key = arc_keys(edges)
        assert key.tolist() == [
            (n - 1) * n + n - 2, n - 1, (n - 2) * n + n - 1, (n - 1) * n
        ]
        with pytest.raises(GraphError, match="overflow"):
            arc_keys(EdgeList(n + 1, edges.sources, edges.targets))


# -- the chunked generator against one pass over the same stream -----------


def single_pass_rmat(rng, scale, m, params, permute_labels):
    """The generator as one vectorised pass per level over all m edges."""
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    p_right = params.b + params.d
    p_row1_given_right = params.d / p_right if p_right > 0 else 0.0
    p_row1_given_left = (
        params.c / (params.a + params.c) if (params.a + params.c) > 0 else 0.0
    )
    for _level in range(scale):
        col = rng.random(m) < p_right
        p_row1 = np.where(col, p_row1_given_right, p_row1_given_left)
        row = rng.random(m) < p_row1
        src = (src << 1) | row.astype(np.int64)
        dst = (dst << 1) | col.astype(np.int64)
    if permute_labels:
        perm = rng.permutation(1 << scale).astype(np.int64)
        src, dst = perm[src], perm[dst]
    flip = rng.random(m) < 0.5
    return np.where(flip, dst, src), np.where(flip, src, dst)


STREAM_CASES = [
    # (scale, m, params, permute_labels, seed)
    (0, 5, RmatParams(), True, 1),
    (1, 9, RmatParams(), True, 3),
    (5, 96, RmatParams(), True, 2),
    (6, 200, RmatParams(), False, 4),
    (5, 150, RmatParams(0.6, 0.25, 0.15, 0.0), True, 5),
    (4, 70, RmatParams(0.7, 0.0, 0.3, 0.0), True, 6),
    (4, 70, RmatParams(0.0, 0.6, 0.0, 0.4), True, 7),
]


class TestChunkedGenerator:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_same_stream_as_single_pass(self, monkeypatch, chunk, case):
        """Edges and the generator's final state match a single pass, for
        chunk sizes that do and do not divide m."""
        scale, m, params, permute, seed = case
        monkeypatch.setattr(rmat, "_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        edges = rmat._generate(rng, scale, m, params, permute)
        ref_rng = np.random.default_rng(seed)
        src, dst = single_pass_rmat(ref_rng, scale, m, params, permute)
        np.testing.assert_array_equal(edges.sources, src)
        np.testing.assert_array_equal(edges.targets, dst)
        assert edges.sources.dtype == edges.targets.dtype == np.int64
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_workers_draw_the_single_pass_stream(
        self, monkeypatch, workers, chunk, case
    ):
        """Any worker count yields the single pass's edges and final
        state, and the arc-key sink the edges' ``arc_keys``."""
        scale, m, params, permute, seed = case
        monkeypatch.setattr(rmat, "_CHUNK", chunk)
        monkeypatch.setattr(rmat, "_usable_cpus", lambda: workers)
        ref_rng = np.random.default_rng(seed)
        src, dst = single_pass_rmat(ref_rng, scale, m, params, permute)
        for arcs in (False, True):
            rng = np.random.default_rng(seed)
            out = rmat._generate(rng, scale, m, params, permute, arcs=arcs)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if arcs:
                want = arc_keys(EdgeList(1 << scale, src, dst))
                np.testing.assert_array_equal(out, want)
            else:
                np.testing.assert_array_equal(out.sources, src)
                np.testing.assert_array_equal(out.targets, dst)

    @pytest.mark.parametrize(
        "cpus, chunks, pool", [(1, 5, None), (4, 1, None), (2, 5, 1), (4, 3, 2)]
    )
    def test_worker_pool(self, monkeypatch, cpus, chunks, pool):
        """One worker per usable CPU up to one per chunk, the calling
        thread among them: a single CPU or a single chunk starts no pool,
        and every pool thread is gone when the graph is."""
        sizes = []

        class Recording(rmat.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(rmat, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(rmat, "_usable_cpus", lambda: cpus)
        scale, edgefactor = 6, 4
        monkeypatch.setattr(rmat, "_CHUNK", -(-(edgefactor << scale) // chunks))
        before = threading.active_count()
        graph = rmat_graph(scale, edgefactor=edgefactor, seed=3)
        assert threading.active_count() == before
        assert sizes == ([] if pool is None else [pool])
        want = build_graph(generate_rmat_edges(scale, edgefactor, seed=3))
        assert graph_digest(graph) == graph_digest(want)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        """Eight workers switching every microsecond build the graph of
        the single pass: each writes only its own chunks' slices."""
        monkeypatch.setattr(rmat, "_CHUNK", 64)
        monkeypatch.setattr(rmat, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            graph = rmat_graph(8, seed=4)
        finally:
            sys.setswitchinterval(interval)
        rng = np.random.default_rng(4)
        src, dst = single_pass_rmat(rng, 8, 16 << 8, RmatParams(), True)
        want = build_graph(EdgeList(1 << 8, src, dst))
        np.testing.assert_array_equal(graph.offsets, want.offsets)
        np.testing.assert_array_equal(graph.targets, want.targets)

    def test_no_thread_outlives_a_multichunk_build(self):
        assert rmat._CHUNK < 16 << 13
        before = threading.active_count()
        rmat_graph(13, seed=2)
        generate_rmat_edges(13, seed=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_public_generator_is_chunk_invariant(self, monkeypatch, chunk):
        default = generate_rmat_edges(scale=5, edgefactor=3, seed=9)
        assert default.num_edges % 7 and default.num_edges % 64
        monkeypatch.setattr(rmat, "_CHUNK", chunk)
        chunked = generate_rmat_edges(scale=5, edgefactor=3, seed=9)
        np.testing.assert_array_equal(chunked.sources, default.sources)
        np.testing.assert_array_equal(chunked.targets, default.targets)


@pytest.mark.parametrize("k, j", [(0, 5), (1, 1), (3, 17), (1000, 33)])
@pytest.mark.parametrize("warmup", [0, 2])
def test_pcg64_advance_skips_float64_draws(k, j, warmup):
    """The chunked generator assumes each float64 from ``random`` is one
    64-bit PCG64 output, so ``advance(k)`` skips exactly k of them."""
    jumped = np.random.default_rng(11)
    drawn = np.random.default_rng(11)
    jumped.random(warmup)
    drawn.random(warmup)
    jumped.bit_generator.advance(k)
    np.testing.assert_array_equal(jumped.random(j), drawn.random(k + j)[k:])
    out = np.empty(j)
    jumped.random(out=out)
    np.testing.assert_array_equal(out, drawn.random(j))


# -- _check_csr_invariants on hand-built graphs -----------------------------


def csr(offsets, targets) -> Graph:
    return Graph(
        num_vertices=len(offsets) - 1,
        offsets=np.asarray(offsets, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
    )


BAD_CSRS = {
    "unsorted row": csr([0, 2, 3, 3], [2, 1, 0]),
    "duplicate in row": csr([0, 0, 2, 2], [0, 0]),
    "self loop": csr([0, 1, 2, 2], [1, 1]),
    "unsorted row after an empty one": csr([0, 1, 1, 4], [2, 0, 1, 0]),
}


@pytest.mark.parametrize("block", [1, 2, 1 << 20])
class TestCsrInvariants:
    @pytest.mark.parametrize("name", list(BAD_CSRS))
    def test_bad_csr_raises(self, monkeypatch, block, name):
        monkeypatch.setattr(builder, "_BLOCK", block)
        with pytest.raises(GraphError):
            _check_csr_invariants(BAD_CSRS[name])

    def test_decrease_across_an_empty_row_passes(self, monkeypatch, block):
        monkeypatch.setattr(builder, "_BLOCK", block)
        _check_csr_invariants(csr([0, 2, 2, 4, 4], [2, 3, 0, 1]))
        _check_csr_invariants(csr([0, 0, 0], []))


if __name__ == "__main__":
    for case_id in CASES:
        edges, graph = case_digests(case_id)
        print(f'    "{case_id}": ("{edges}", "{graph}"),')
