"""Microbenchmarks of the library's hot kernels.

These are *wall-clock* benchmarks of the reproduction's own code (unlike
the figure benches, which report simulated time): bitmap operations, the
bottom-up scan and the top-down step (a single-source level over all
ranks) under every registered kernel backend, the R-MAT generator, a
full engine run and a full 64-source batch.  They guard against
performance regressions in the simulator itself.

The bottom-up benchmarks run each backend on a *real* mid-BFS level
(the scan right after level 1 from a high-degree root), which is where
the active-set backend's early exit pays: most candidates retire within
their first couple of edges.  They run it on 8 ranks and on 128, where
``activeset`` groups ranks into blocks, and add an all-bottom-up level
0, where nearly every candidate misses.  ``make bench-baseline``
records the suite to ``BENCH_kernels.json`` with backend/scale/commit
metadata.

Environment knobs: ``REPRO_BENCH_SCALE`` (default 16) sizes the R-MAT
graph so CI can run a small smoke pass.  The default moved from 15 to
16 when the ``cnative`` backend landed: at 15 its per-round scan is
well under a millisecond, too close to timer noise to gate on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine, Bitmap, SummaryBitmap, compute_levels
from repro.core.kernels import available_backends, get_backend
from repro.core.multisource import MultiSourceEngine
from repro.graph import generate_rmat_edges, rmat_graph
from repro.graph.builder import build_graph
from repro.machine import paper_cluster
from repro.util import segments

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
BACKENDS = available_backends()


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=SCALE, seed=3)


@pytest.fixture(scope="module")
def mid_level(graph):
    """Frontier/visited sets of a real mid-BFS level — the bottom-up scan
    right after level 1, started from the highest-degree vertex (the
    densest level of the traversal, where early exit matters most) —
    and the rank bounds of the engine that ran it."""
    root = int(np.argmax(graph.degrees()))
    engine = BFSEngine(graph, paper_cluster(nodes=1), BFSConfig())
    levels = compute_levels(graph, root, engine.run(root).parent)
    frontier = np.flatnonzero(levels == 1)
    visited = np.flatnonzero((levels >= 0) & (levels <= 1))
    return frontier, visited, engine.partition.bounds


def _skip_unless_runnable(backend, backend_name):
    if backend.name != backend_name:
        # Resolution degraded (e.g. cnative without a toolchain): skip
        # rather than record another backend's numbers under this label.
        pytest.skip(f"backend {backend_name!r} unavailable here")


def test_bitmap_set_and_count(benchmark):
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1 << 22, size=200_000)

    def op():
        bm = Bitmap(1 << 22)
        bm.set(idx)
        return bm.count()

    assert benchmark(op) > 0


def test_summary_build(benchmark):
    rng = np.random.default_rng(1)
    bm = Bitmap.from_indices(
        1 << 22, rng.integers(0, 1 << 22, size=100_000)
    )
    summary = benchmark(SummaryBitmap.build, bm, 256)
    assert 0.0 <= summary.zero_fraction() <= 1.0


def test_segment_first_true(benchmark):
    rng = np.random.default_rng(2)
    lengths = rng.integers(0, 40, size=100_000)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    mask = rng.random(int(offsets[-1])) < 0.05
    out = benchmark(segments.segment_first_true, mask, offsets)
    assert out.size == 100_000


def test_segment_first_true_and_counts_fused(benchmark):
    # The fused single-pass variant used by the kernels: first hit and
    # early-exit examined count together.
    rng = np.random.default_rng(2)
    lengths = rng.integers(0, 40, size=100_000)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    mask = rng.random(int(offsets[-1])) < 0.05
    first, counts = benchmark(
        segments.segment_first_true_and_counts, mask, offsets
    )
    assert first.size == counts.size == 100_000


def test_rmat_generation(benchmark):
    edges = benchmark(generate_rmat_edges, 14, 16, seed=9)
    assert edges.num_edges == 16 * (1 << 14)


def test_csr_build(benchmark):
    edges = generate_rmat_edges(14, 16, seed=9)
    graph = benchmark(build_graph, edges)
    assert graph.num_vertices == 1 << 14


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bottom_up_level(benchmark, graph, mid_level, backend_name):
    """One mid-BFS bottom-up level per backend: the one kernel call that
    scans all 8 ranks of ``paper_cluster(nodes=1)``."""
    frontier, visited, bounds = mid_level
    backend = get_backend(backend_name)
    _skip_unless_runnable(backend, backend_name)
    in_queue = Bitmap.from_indices(graph.num_vertices, frontier)
    summary = SummaryBitmap.build(in_queue, 64)

    def fresh_level():
        parent = np.full(graph.num_vertices, -1, dtype=np.int64)
        parent[visited] = visited
        return (graph, parent, in_queue, summary, bounds), {}

    result = benchmark.pedantic(
        backend.bottom_up_scan,
        setup=fresh_level,
        rounds=30,
        warmup_rounds=3,
    )
    assert result.examined_edges > 0
    benchmark.extra_info.update(
        backend=backend_name,
        scale=SCALE,
        ranks=int(bounds.size - 1),
        frontier=int(frontier.size),
        candidates=int(result.rank_candidates.sum()),
        examined_edges=result.examined_edges,
        inqueue_reads=int(result.rank_inqueue_reads.sum()),
        discovered=int(result.discovered.size),
        gathered_edges=result.gathered_edges,
        chunk_rounds=result.chunk_rounds,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bottom_up_sparse_level(benchmark, graph, mid_level, backend_name):
    """Level 0 of an all-bottom-up run, per backend: the frontier is one
    median-degree root (Graph500 draws roots uniformly among vertices of
    degree >= 1), so nearly every candidate misses and scans its whole
    row — the shape of the Fig. 13 bottom-up-only rows.  ``activeset``
    counts it from the frontier's side."""
    _, _, bounds = mid_level
    backend = get_backend(backend_name)
    _skip_unless_runnable(backend, backend_name)
    n = graph.num_vertices
    degrees = graph.degrees()
    order = np.argsort(degrees, kind="stable")
    reached = order[degrees[order] > 0]
    root = int(reached[reached.size // 2])
    in_queue = Bitmap.from_indices(n, np.array([root]))
    summary = SummaryBitmap.build(in_queue, 64)

    def fresh_level():
        parent = np.full(n, -1, dtype=np.int64)
        parent[root] = root
        return (graph, parent, in_queue, summary, bounds), {}

    result = benchmark.pedantic(
        backend.bottom_up_scan,
        setup=fresh_level,
        rounds=10,
        warmup_rounds=1,
    )
    assert result.discovered.size == graph.degree(root)
    benchmark.extra_info.update(
        backend=backend_name,
        scale=SCALE,
        ranks=int(bounds.size - 1),
        frontier=1,
        candidates=int(result.rank_candidates.sum()),
        examined_edges=result.examined_edges,
        inqueue_reads=int(result.rank_inqueue_reads.sum()),
        discovered=int(result.discovered.size),
        gathered_edges=result.gathered_edges,
        chunk_rounds=result.chunk_rounds,
    )


@pytest.fixture(scope="module")
def many_ranks_level(graph):
    """The ``mid_level`` shape on 128 ranks (``paper_cluster(nodes=16)``):
    the bottom-up scan right after level 1 from the highest-degree
    vertex, where every rank holds a few hundred vertices."""
    root = int(np.argmax(graph.degrees()))
    engine = BFSEngine(graph, paper_cluster(nodes=16), BFSConfig())
    levels = compute_levels(graph, root, engine.run(root).parent)
    frontier = np.flatnonzero(levels == 1)
    visited = np.flatnonzero((levels >= 0) & (levels <= 1))
    return frontier, visited, engine.partition.bounds


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bottom_up_many_ranks(
    benchmark, graph, many_ranks_level, backend_name
):
    """One dense mid-BFS bottom-up level over 128 ranks per backend: the
    shape where ``activeset`` runs one wavefront per block of ranks
    rather than one per rank."""
    frontier, visited, bounds = many_ranks_level
    backend = get_backend(backend_name)
    _skip_unless_runnable(backend, backend_name)
    in_queue = Bitmap.from_indices(graph.num_vertices, frontier)
    summary = SummaryBitmap.build(in_queue, 64)

    def fresh_level():
        parent = np.full(graph.num_vertices, -1, dtype=np.int64)
        parent[visited] = visited
        return (graph, parent, in_queue, summary, bounds), {}

    result = benchmark.pedantic(
        backend.bottom_up_scan,
        setup=fresh_level,
        rounds=30,
        warmup_rounds=3,
    )
    assert result.examined_edges > 0
    benchmark.extra_info.update(
        backend=backend_name,
        scale=SCALE,
        ranks=int(bounds.size - 1),
        frontier=int(frontier.size),
        candidates=int(result.rank_candidates.sum()),
        examined_edges=result.examined_edges,
        inqueue_reads=int(result.rank_inqueue_reads.sum()),
        discovered=int(result.discovered.size),
        gathered_edges=result.gathered_edges,
        chunk_rounds=result.chunk_rounds,
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_top_down_level(benchmark, graph, mid_level, backend_name):
    """The same mid-BFS level expanded top-down instead (as pure
    top-down mode runs it): the one ``top_down_expand`` call that
    covers all 8 ranks, discoveries applied."""
    frontier, visited, bounds = mid_level
    backend = get_backend(backend_name)
    _skip_unless_runnable(backend, backend_name)
    n = graph.num_vertices
    owner_of = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    rows = np.zeros(1, dtype=np.int64)

    def fresh_level():
        parent = np.full((1, n), -1, dtype=np.int64)
        parent[0, visited] = visited
        return (graph, [frontier], parent, rows, owner_of, bounds), {}

    result = benchmark.pedantic(
        backend.top_down_expand,
        setup=fresh_level,
        rounds=30,
        warmup_rounds=3,
    )
    assert result.frontiers[0].size > 0
    benchmark.extra_info.update(
        backend=backend_name,
        scale=SCALE,
        ranks=int(bounds.size - 1),
        frontier=int(frontier.size),
        examined_edges=int(result.examined_edges.sum()),
        send_bytes=int(result.send_bytes.sum()),
        discovered=int(result.frontiers[0].size),
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_full_engine_run(benchmark, graph, backend_name):
    cluster = paper_cluster(nodes=2)
    engine = BFSEngine(
        graph, cluster, BFSConfig(kernel=backend_name, label="Original.ppn=8")
    )
    _skip_unless_runnable(engine.kernel, backend_name)
    root = int(np.argmax(graph.degrees()))
    result = benchmark.pedantic(engine.run, args=(root,), rounds=1, iterations=1)
    assert result.visited > 0
    benchmark.extra_info.update(backend=backend_name, scale=SCALE)


@pytest.fixture(scope="module")
def batch_roots(graph):
    """The 64 highest-degree vertices: one lane each."""
    return [int(r) for r in np.argsort(graph.degrees())[-64:][::-1]]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_run_batch_64(benchmark, graph, batch_roots, backend_name):
    """One whole 64-source batch — ``test_full_engine_run``'s cluster and
    config, so per-query cost compares with one engine run."""
    engine = MultiSourceEngine(
        graph,
        paper_cluster(nodes=2),
        BFSConfig(kernel=backend_name, label="Original.ppn=8"),
    )
    _skip_unless_runnable(engine.engine.kernel, backend_name)
    results = benchmark.pedantic(
        engine.run_batch, args=(batch_roots,), rounds=1, iterations=1
    )
    assert all(r.visited > 0 for r in results)
    benchmark.extra_info.update(backend=backend_name, scale=SCALE, lanes=64)
