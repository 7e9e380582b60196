"""Backend-equivalence suite for the pluggable BFS kernels.

Every kernel backend must reproduce the paper's accounting
bit-identically — parents, discovery order, ``examined_edges`` and
``inqueue_reads`` (Section II.B.2) per rank — because the cost model
and Fig. 16 consume those counts.  These tests pin that invariant on
randomized R-MAT graphs, on the adversarial shapes the chunked scan is
most likely to get wrong (isolated vertices, an empty frontier, a
single giant-degree hub, pathological chunk widths), and against a
brute-force per-vertex oracle of the level contract on random CSRs.
"""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BFSConfig,
    BFSEngine,
    Bitmap,
    CommConfig,
    SummaryBitmap,
    TraversalMode,
)
from repro.core.counts import LevelCounts
from repro.core.kernels import (
    ActiveSetBackend,
    CNativeBackend,
    ReferenceBackend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)
from repro.core.kernels.activeset import _COLUMN_WIDTH
from repro.core.kernels.base import _rank_blocks
from repro.core.topdown import _dedup_dense, _dedup_sorted, dedup_first_parent
from repro.errors import ConfigError
from repro.graph import (
    EdgeList,
    Partition1D,
    build_graph,
    from_edge_arrays,
    path_graph,
    rmat_graph,
    star_graph,
)
from repro.machine import paper_cluster

# The backends under test: the oracle, the default active-set kernel,
# and active-set variants with adversarial chunk widths (1 forces one
# edge per candidate per round; 3 exercises ragged chunk tails; a huge
# width degenerates to full materialization in one round).  The native
# compiled backend joins whenever this machine can build it; without a
# toolchain it is exercised through the fallback tests instead
# (tests/test_cnative.py).
BACKENDS = {
    "reference": ReferenceBackend(),
    "activeset": ActiveSetBackend(),
    "activeset.chunk=1": ActiveSetBackend(chunk=1),
    "activeset.chunk=3": ActiveSetBackend(chunk=3),
    "activeset.chunk=big": ActiveSetBackend(chunk=1 << 20),
}
CNATIVE_AVAILABLE = CNativeBackend.availability()[0]
if CNATIVE_AVAILABLE:
    BACKENDS["cnative"] = CNativeBackend()

VARIANTS = sorted(k for k in BACKENDS if k != "reference")


def scan_level(graph, backend, visited, frontier, granularity, ranks=3):
    """Run one bottom-up level from a reproducible state over ``ranks``
    block ranks; return the result and the post-scan parent array."""
    n = graph.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    visited = np.asarray(visited, dtype=np.int64)
    parent[visited] = visited  # parent=self is fine for setup
    in_queue = Bitmap.from_indices(n, frontier)
    summary = (
        SummaryBitmap.build(in_queue, granularity) if granularity else None
    )
    bounds = Partition1D(n, ranks).bounds
    out = backend.bottom_up_scan(graph, parent, in_queue, summary, bounds)
    return out, parent


def scan_outcome(graph, backend, visited, frontier, granularity):
    """All accounting of one level plus the post-scan parent array."""
    out, parent = scan_level(graph, backend, visited, frontier, granularity)
    return {
        "discovered": out.discovered.tolist(),
        "candidates": out.rank_candidates.tolist(),
        "examined_edges": out.rank_examined_edges.tolist(),
        "inqueue_reads": out.rank_inqueue_reads.tolist(),
        "parent": parent.tolist(),
        # The hybrid policy's m_u must stay in sync no matter how a
        # backend applies discoveries (cnative does it in C).
        "disc_degree": out.rank_disc_degree.tolist(),
    }


def assert_all_backends_agree(graph, visited, frontier, granularity):
    """The heart of the suite: identical outcome under every backend."""
    expected = scan_outcome(
        graph, BACKENDS["reference"], visited, frontier, granularity
    )
    for name in VARIANTS:
        got = scan_outcome(graph, BACKENDS[name], visited, frontier, granularity)
        assert got == expected, (
            f"{name} diverged from reference (granularity={granularity})"
        )


GRANULARITIES = [None, 64, 256]


class TestScanEquivalence:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rmat_random_levels(self, seed, granularity):
        graph = rmat_graph(scale=9, edgefactor=8, seed=seed)
        rng = np.random.default_rng(100 + seed)
        n = graph.num_vertices
        # A synthetic mid-BFS state: ~35% visited, frontier = a random
        # half of the visited set (a superset relation is not required
        # by the kernels).
        visited = rng.choice(n, size=n // 3, replace=False)
        frontier = rng.choice(visited, size=visited.size // 2, replace=False)
        assert_all_backends_agree(graph, visited, frontier, granularity)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_empty_frontier(self, granularity):
        graph = rmat_graph(scale=8, edgefactor=8, seed=5)
        # No frontier bits at all: every candidate scans its full degree.
        assert_all_backends_agree(
            graph, np.array([0]), np.array([], dtype=np.int64), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_single_giant_degree_hub(self, granularity):
        # One hub adjacent to everything; the hub is the sole unvisited
        # candidate, so one candidate drives many doubling rounds.
        graph = star_graph(4000)
        leaves = np.arange(1, 4000)
        frontier = np.array([3990])  # deep in the hub's adjacency
        assert_all_backends_agree(graph, leaves, frontier, granularity)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_hub_with_no_hit(self, granularity):
        graph = star_graph(2048)
        # Frontier contains only the (visited) hub itself: every leaf
        # candidate hits on its single edge; the hub is visited.
        assert_all_backends_agree(
            graph, np.array([0]), np.array([0]), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_isolated_vertices(self, granularity):
        # Vertices 3..9 isolated: candidates must skip them entirely.
        graph = from_edge_arrays(10, [0, 1, 0], [1, 2, 2])
        assert_all_backends_agree(
            graph, np.array([0]), np.array([0]), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_no_candidates(self, granularity):
        graph = path_graph(8)
        assert_all_backends_agree(
            graph, np.arange(8), np.array([4]), granularity
        )

    def test_activeset_gathers_fewer_edges_than_reference(self):
        # The backend's raison d'être: on a dense-frontier level it must
        # materialize far less adjacency than the full candidate degree.
        graph = rmat_graph(scale=10, edgefactor=16, seed=7)
        rng = np.random.default_rng(8)
        n = graph.num_vertices
        visited = rng.choice(n, size=n // 2, replace=False)
        frontier = visited

        def gathered(backend):
            return scan_level(graph, backend, visited, frontier, None)[0]

        ref = gathered(BACKENDS["reference"])
        act = gathered(BACKENDS["activeset"])
        assert ref.gathered_edges > 0
        assert act.gathered_edges < ref.gathered_edges / 4
        assert act.examined_edges == ref.examined_edges

    @pytest.mark.parametrize("granularity", [None, 64])
    def test_narrow_rounds_gather_only_examined_cells(self, granularity):
        """A column round reads each row only up to its first hit, so a
        dense scan whose rounds are all narrow gathers exactly the cells
        it examines."""
        rng = np.random.default_rng(5)
        n = 400
        graph = from_edge_arrays(
            n, rng.integers(0, n, 400), rng.integers(0, n, 400)
        )
        assert int(np.diff(graph.offsets).max()) <= _COLUMN_WIDTH
        backend = ActiveSetBackend()
        backend._force_frontier_side = False
        visited = rng.choice(n, size=n // 2, replace=False)
        res = scan_level(graph, backend, visited, visited, granularity)[0]
        assert res.chunk_rounds > 1
        assert res.gathered_edges == res.examined_edges > 0


def random_csr(rng, n):
    """Random CSR over ``n`` vertices with zero-degree rows, duplicate
    edges and self-loops."""
    degs = rng.integers(0, 9, n) * (rng.random(n) < 0.8)
    offsets = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    targets = rng.integers(0, n, int(offsets[-1])).astype(np.int64)
    for v in np.flatnonzero(degs >= 2)[::3]:
        targets[offsets[v] + 1] = targets[offsets[v]]  # duplicate edge
        if v % 2:
            targets[offsets[v]] = v  # self-loop
    return SimpleNamespace(offsets=offsets, targets=targets)


def oracle_level(graph, parent, frontier, granularity, bounds):
    """The bottom-up level contract one vertex at a time: per rank,
    ascending, walk each candidate's row until its first frontier
    neighbour, reading in_queue only behind a non-empty summary block.
    Writes ``parent``; returns the discoveries and the (4, ranks)
    candidates / examined / in_queue reads / discovered degree."""
    frontier = set(frontier.tolist())
    lit = None if granularity is None else {u // granularity for u in frontier}
    counts = np.zeros((4, len(bounds) - 1), dtype=np.int64)
    discovered = []
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for v in range(lo, hi):
            row = graph.targets[graph.offsets[v]:graph.offsets[v + 1]]
            if parent[v] >= 0 or row.size == 0:
                continue
            counts[0, r] += 1
            for u in row.tolist():
                counts[1, r] += 1
                if lit is not None and u // granularity not in lit:
                    continue  # empty summary block: a proven miss
                counts[2, r] += 1
                if u in frontier:
                    parent[v] = u
                    discovered.append(v)
                    counts[3, r] += row.size
                    break
    return discovered, counts


class TestLevelContract:
    """``bottom_up_scan`` of every backend against :func:`oracle_level`
    on random small CSRs over 1-8 word-aligned ranks (empty ranks
    included), with pre-visited vertices and every summary shape."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(1, 8),
        ranks=st.integers(1, 8),
        granularity=st.sampled_from([None, 64, 256, 192]),
        visited_density=st.sampled_from([0.0, 0.3, 0.9]),
        frontier_density=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_backends_match_brute_force_oracle(
        self, seed, words, ranks, granularity, visited_density,
        frontier_density,
    ):
        rng = np.random.default_rng(seed)
        n = 64 * words
        graph = random_csr(rng, n)
        cuts = np.sort(rng.integers(0, words + 1, ranks - 1))
        bounds = 64 * np.concatenate(([0], cuts, [words])).astype(np.int64)
        parent = np.where(
            rng.random(n) < visited_density, rng.integers(0, n, n), -1
        ).astype(np.int64)
        frontier = np.flatnonzero(rng.random(n) < frontier_density)
        in_queue = Bitmap.from_indices(n, frontier)
        summary = (
            None if granularity is None
            else SummaryBitmap.build(in_queue, granularity)
        )
        want_parent = parent.copy()
        want_disc, want_counts = oracle_level(
            graph, want_parent, frontier, granularity, bounds
        )
        for name, backend in BACKENDS.items():
            got_parent = parent.copy()
            res = backend.bottom_up_scan(
                graph, got_parent, in_queue, summary, bounds
            )
            got_counts = np.stack([
                res.rank_candidates, res.rank_examined_edges,
                res.rank_inqueue_reads, res.rank_disc_degree,
            ])
            assert res.discovered.tolist() == want_disc, name
            assert np.array_equal(got_counts, want_counts), name
            assert np.array_equal(got_parent, want_parent), name
            assert res.examined_edges == want_counts[1].sum(), name

    @pytest.mark.skipif(not CNATIVE_AVAILABLE, reason="no usable C toolchain")
    def test_native_level_rejects_bad_buffers(self):
        """Buffers are checked before the C loop gets their pointers."""
        graph = path_graph(128)
        parent = np.full(128, -1, dtype=np.int64)
        bounds = np.array([0, 64, 128], dtype=np.int64)
        for p, b, nbits in (
            (parent.astype(np.int32), bounds, 128),  # wrong dtype
            (parent[::2], bounds[:2], 128),  # not contiguous
            (parent[:64], bounds[:2], 128),  # CSR/parent size mismatch
            (parent, bounds, 64),  # frontier bitmap too short
            (parent, np.array([0, 64, 192], dtype=np.int64), 128),
            (parent, np.array([0, 96, 64, 128], dtype=np.int64), 128),
        ):
            with pytest.raises(ConfigError):
                CNativeBackend().bottom_up_scan(
                    graph, p, Bitmap(nbits), None, b
                )


def blocked_activeset(budgets):
    """A dense-only active-set backend with the given ``(vertices,
    candidates)`` block budgets."""
    backend = ActiveSetBackend()
    backend._force_frontier_side = False
    backend._blocks = budgets
    return backend


class TestRankBlocks:
    """The dense scan runs one wavefront per block of consecutive ranks
    and cuts the per-rank counts at the rank bounds; whatever the
    blocks, every count, parent and ``chunk_rounds`` must be the
    one-rank-per-block scan's, the reference backend's and the
    oracle's."""

    def test_block_ranges(self):
        """Consecutive ranks up to the budget; a rank over it alone;
        empty ranks stay inside their block; budget 0 goes rank by
        rank."""
        bounds = [0, 64, 64, 192, 4096, 4160, 4160, 4224]
        assert list(_rank_blocks(bounds, 192)) == [(0, 3), (3, 4), (4, 7)]
        assert list(_rank_blocks(bounds, 0)) == [(r, r + 1) for r in range(7)]
        assert list(_rank_blocks(bounds, 1 << 20)) == [(0, 7)]
        assert list(_rank_blocks([0, 5], 0)) == [(0, 1)]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(1, 160),
        ranks=st.integers(1, 128),
        granularity=st.sampled_from([None, 64, 192]),
        visited_density=st.sampled_from([0.0, 0.3, 0.9]),
        frontier_density=st.sampled_from([0.0, 0.05, 0.5]),
        blocks=st.sampled_from(["rank", "all", "drawn"]),
        budgets=st.tuples(st.integers(0, 4096), st.integers(0, 512)),
    )
    def test_blocks_match_oracle_and_rank_by_rank(
        self, seed, words, ranks, granularity, visited_density,
        frontier_density, blocks, budgets,
    ):
        rng = np.random.default_rng(seed)
        n = 64 * words
        graph = random_csr(rng, n)
        cuts = np.sort(rng.integers(0, words + 1, ranks - 1))
        bounds = 64 * np.concatenate(([0], cuts, [words])).astype(np.int64)
        parent = np.where(
            rng.random(n) < visited_density, rng.integers(0, n, n), -1
        ).astype(np.int64)
        frontier = np.flatnonzero(rng.random(n) < frontier_density)
        in_queue = Bitmap.from_indices(n, frontier)
        summary = (
            None if granularity is None
            else SummaryBitmap.build(in_queue, granularity)
        )
        want_parent = parent.copy()
        want_disc, want_counts = oracle_level(
            graph, want_parent, frontier, granularity, bounds
        )
        budgets = {"rank": (0, 0), "all": (n, n), "drawn": budgets}[blocks]
        results = {}
        for name, backend in (
            ("reference", BACKENDS["reference"]),
            ("rank by rank", blocked_activeset((0, 0))),
            (f"blocks {budgets}", blocked_activeset(budgets)),
        ):
            got_parent = parent.copy()
            res = backend.bottom_up_scan(
                graph, got_parent, in_queue, summary, bounds
            )
            got_counts = np.stack([
                res.rank_candidates, res.rank_examined_edges,
                res.rank_inqueue_reads, res.rank_disc_degree,
            ])
            assert res.discovered.tolist() == want_disc, name
            assert np.array_equal(got_counts, want_counts), name
            assert np.array_equal(got_parent, want_parent), name
            results[name] = res
        rounds = [r.chunk_rounds for r in results.values()]
        assert rounds[1] == rounds[2]
        assert rounds[0] == int(rounds[1] > 0)


def random_graph(rng, n):
    """A ``Graph`` built by ``build_graph`` from a random edge list over
    ``n`` vertices with duplicate edges and self-loops."""
    m = int(rng.integers(0, 6 * n + 1))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    dup = rng.integers(0, m, m // 4) if m else np.zeros(0, dtype=np.int64)
    loops = rng.integers(0, n, n // 8)
    return build_graph(EdgeList(
        n,
        np.concatenate([src, dst[dup], loops]),
        np.concatenate([dst, src[dup], loops]),
    ))


def forced_activeset(frontier_side):
    """An active-set backend whose gate is forced to one path (None: the
    gate chooses)."""
    backend = ActiveSetBackend()
    backend._force_frontier_side = frontier_side
    return backend


class TestFrontierSide:
    """The active-set frontier-side path counts a level from the
    frontier's adjacency on a symmetric ``Graph``; it must agree with
    the dense per-rank scan, the reference backend and the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(1, 8),
        ranks=st.integers(1, 8),
        granularity=st.sampled_from([None, 64, 192, 256]),
        visited_density=st.sampled_from([0.0, 0.3, 0.9]),
        frontier=st.sampled_from(["empty", "single", 0.05, 0.5]),
    )
    def test_every_path_matches_oracle_on_graphs(
        self, seed, words, ranks, granularity, visited_density, frontier,
    ):
        rng = np.random.default_rng(seed)
        n = 64 * words
        graph = random_graph(rng, n)
        cuts = np.sort(rng.integers(0, words + 1, ranks - 1))
        bounds = 64 * np.concatenate(([0], cuts, [words])).astype(np.int64)
        parent = np.where(
            rng.random(n) < visited_density, rng.integers(0, n, n), -1
        ).astype(np.int64)
        if frontier == "empty":
            ids = np.zeros(0, dtype=np.int64)
        elif frontier == "single":
            ids = rng.integers(0, n, 1)
        else:
            ids = np.flatnonzero(rng.random(n) < frontier)
        in_queue = Bitmap.from_indices(n, ids)
        summary = (
            None if granularity is None
            else SummaryBitmap.build(in_queue, granularity)
        )
        want_parent = parent.copy()
        want_disc, want_counts = oracle_level(
            graph, want_parent, ids, granularity, bounds
        )
        backends = {
            "reference": BACKENDS["reference"],
            "frontier-side": forced_activeset(True),
            "dense": forced_activeset(False),
            "gated": forced_activeset(None),
        }
        for name, backend in backends.items():
            got_parent = parent.copy()
            res = backend.bottom_up_scan(
                graph, got_parent, in_queue, summary, bounds
            )
            got_counts = np.stack([
                res.rank_candidates, res.rank_examined_edges,
                res.rank_inqueue_reads, res.rank_disc_degree,
            ])
            assert res.discovered.tolist() == want_disc, name
            assert np.array_equal(got_counts, want_counts), name
            assert np.array_equal(got_parent, want_parent), name

    @pytest.mark.parametrize("scale, mode, engaged", [
        (12, TraversalMode.BOTTOM_UP, True),
        (14, TraversalMode.HYBRID, False),
    ], ids=["bottom-up-s12", "hybrid-s14"])
    def test_gate_engagement(self, monkeypatch, scale, mode, engaged):
        """All-bottom-up level 0 (a one-vertex frontier) takes the
        frontier side; no hybrid bottom-up level does, since the
        frontier is large by the time the hybrid policy switches.
        Either way the run equals the reference backend's."""
        taken = []
        plan = ActiveSetBackend._frontier_side_plan

        def spy(self, *args):
            out = plan(self, *args)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(ActiveSetBackend, "_frontier_side_plan", spy)
        graph = rmat_graph(scale=scale, seed=scale)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(graph.degrees()))
        want, got = (
            BFSEngine(graph, cluster, BFSConfig(kernel=kernel, mode=mode))
            for kernel in ("reference", "activeset")
        )
        assert got.partition.bounds.size - 1 == 16
        want, got = want.run(root), got.run(root)
        assert len(taken) >= 2  # bottom-up levels, all gated
        if engaged:
            assert taken[0]
        else:
            assert not any(taken)
        assert_same_runs(want, got)


def hub_level():
    """A bottom-up level over 512 vertices whose hub holdouts make one
    active-set scan run both narrow (column-major) and wide (row-major)
    rounds: four hubs spread over the ranks hold rows of 20 to 321 arcs
    whose first frontier neighbour sits at the row's end, in its middle
    or nowhere, among sparse random rows that hit or miss early.
    Returns the symmetric ``Graph``, the pre-level parent array and the
    frontier."""
    rng = np.random.default_rng(46)
    n = 512
    frontier = np.array([7, 240, 500, 501, 502], dtype=np.int64)
    hub_rows = {
        3: np.append(np.arange(10, 330), 501),  # hit at its last arc
        70: np.arange(200, 480),  # misses its whole row
        130: np.append(np.arange(100, 140), 500),  # hit at its last arc
        260: np.arange(230, 250),  # hit (240) mid-row
    }
    src = [rng.integers(0, n, 700)]
    dst = [rng.integers(0, n, 700)]
    for hub, row in hub_rows.items():
        src.append(np.full(row.size, hub))
        dst.append(row)
    graph = build_graph(
        EdgeList(n, np.concatenate(src), np.concatenate(dst))
    )
    parent = np.where(rng.random(n) < 0.2, rng.integers(0, n, n), -1)
    parent[list(hub_rows)] = -1
    parent[frontier] = frontier
    return graph, parent.astype(np.int64), frontier


def hub_level_outcome(backend, granularity, bounds):
    """``backend``'s and the oracle's results on :func:`hub_level`."""
    graph, parent, frontier = hub_level()
    in_queue = Bitmap.from_indices(graph.num_vertices, frontier)
    summary = (
        None if granularity is None
        else SummaryBitmap.build(in_queue, granularity)
    )
    want_parent = parent.copy()
    want = oracle_level(graph, want_parent, frontier, granularity, bounds)
    res = backend.bottom_up_scan(graph, parent, in_queue, summary, bounds)
    return res, parent, want, want_parent


def assert_matches_oracle(res, parent, want, want_parent, name):
    want_disc, want_counts = want
    got_counts = np.stack([
        res.rank_candidates, res.rank_examined_edges,
        res.rank_inqueue_reads, res.rank_disc_degree,
    ])
    assert res.discovered.tolist() == want_disc, name
    assert np.array_equal(got_counts, want_counts), name
    assert np.array_equal(parent, want_parent), name


def assert_wide_rounds(backend, res):
    """The scan reached a row-major round, after column-major ones
    whenever its first round was narrow."""
    assert backend.chunk << (res.chunk_rounds - 1) > _COLUMN_WIDTH
    if backend.chunk <= _COLUMN_WIDTH:
        assert res.chunk_rounds > 1


class TestHubHoldouts:
    """The brute-force oracle on a level where one active-set scan runs
    narrow rounds column by column and the hub holdouts' wide rounds row
    by row, under every summary shape — granularity 192 included, a
    multiple of 64 that is not a power of two, which the repeated
    summary table must cover block by block."""

    @pytest.mark.parametrize("granularity", [None, 64, 192, 256])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_dense_level_matches_oracle(self, name, granularity):
        bounds = np.array([0, 64, 192, 320, 512], dtype=np.int64)
        res, *rest = hub_level_outcome(BACKENDS[name], granularity, bounds)
        assert_matches_oracle(res, *rest, name)
        if isinstance(BACKENDS[name], ActiveSetBackend):
            assert_wide_rounds(BACKENDS[name], res)

    @pytest.mark.parametrize("granularity", [None, 64, 192, 256])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 20])
    def test_frontier_side_per_candidate_counts(self, chunk, granularity):
        """Forced onto the frontier side, the three hubs that hit run
        the hits' one wavefront through both layouts with per-candidate
        counts; one rank per vertex makes each per-rank count one
        candidate's."""
        backend = ActiveSetBackend(chunk=chunk)
        backend._force_frontier_side = True
        bounds = np.arange(513, dtype=np.int64)
        res, *rest = hub_level_outcome(backend, granularity, bounds)
        assert_matches_oracle(res, *rest, f"chunk={chunk}")
        assert_wide_rounds(backend, res)


class TestFrontiersPartitionedByBounds:
    """The engine sizes a frontier per rank with one binary search per
    partition bound and takes the next level's frontier edges from the
    kernel's discovered degree.  Both need every backend's frontiers
    grouped by owner (rank-major from ``top_down_expand``, ascending from
    ``bottom_up_scan``) and its degree sums exact."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(1, 8),
        ranks=st.integers(1, 8),
        lanes=st.integers(1, 3),
    )
    def test_bounds_sizes_match_bincount(self, seed, words, ranks, lanes):
        rng = np.random.default_rng(seed)
        n = 64 * words
        graph = random_csr(rng, n)
        graph.num_vertices = n
        degrees = np.diff(graph.offsets)
        cuts = np.sort(rng.integers(0, words + 1, ranks - 1))
        bounds = 64 * np.concatenate(([0], cuts, [words])).astype(np.int64)
        owner_of = np.repeat(np.arange(ranks, dtype=np.int64), np.diff(bounds))
        roots = rng.integers(0, n, lanes)

        def check(frontier, disc_degree, name):
            sizes = np.diff(np.searchsorted(frontier, bounds))
            want = np.bincount(owner_of[frontier], minlength=ranks)
            assert np.array_equal(sizes, want), name
            assert disc_degree.sum() == degrees[frontier].sum(), name

        for name, backend in BACKENDS.items():
            parent = np.full((lanes, n), -1, dtype=np.int64)
            parent[np.arange(lanes), roots] = roots
            frontiers = [np.array([r], dtype=np.int64) for r in roots]
            for _ in range(3):
                res = backend.top_down_expand(
                    graph, frontiers, parent, np.arange(lanes), owner_of,
                    bounds,
                )
                for f, disc in zip(res.frontiers, res.disc_degree):
                    check(f, disc, name)
                frontiers = res.frontiers
            in_queue = Bitmap.from_indices(n, frontiers[0])
            res = backend.bottom_up_scan(
                graph, parent[0], in_queue, None, bounds
            )
            check(res.discovered, res.rank_disc_degree, name)


class TestEngineEquivalence:
    """Whole-run equivalence: parents, per-level counts, priced time."""

    @pytest.mark.parametrize("config_kwargs", [
        {},
        {"comm": CommConfig(summary_granularity=256)},
        {"comm": CommConfig(use_summary=False)},
        {"mode": TraversalMode.BOTTOM_UP},
        {"degree_balanced": True},
    ])
    def test_full_run_bit_identical(self, config_kwargs):
        graph = rmat_graph(scale=11, edgefactor=8, seed=3)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(graph.degrees()))
        kernels = ["reference", "activeset"]
        if CNATIVE_AVAILABLE:
            kernels.append("cnative")
        results = {}
        for kernel in kernels:
            cfg = BFSConfig(kernel=kernel, **config_kwargs)
            results[kernel] = BFSEngine(graph, cluster, cfg).run(root)
        a = results["reference"]
        for kernel in kernels[1:]:
            b = results[kernel]
            assert np.array_equal(a.parent, b.parent), kernel
            assert a.levels == b.levels, kernel
            for la, lb in zip(a.counts.levels, b.counts.levels):
                assert la.direction == lb.direction, kernel
                assert np.array_equal(la.candidates, lb.candidates), kernel
                assert np.array_equal(la.examined_edges, lb.examined_edges), kernel
                assert np.array_equal(la.inqueue_reads, lb.inqueue_reads), kernel
                assert np.array_equal(la.discovered, lb.discovered), kernel
            # Identical counts must price identically: the backend can
            # never change a simulated (paper) result.
            assert a.seconds == b.seconds, kernel
            assert a.teps == b.teps, kernel


def assert_same_runs(want, got):
    """Parents, every ``LevelCounts`` field and the priced time agree."""
    assert np.array_equal(want.parent, got.parent)
    assert len(want.counts.levels) == len(got.counts.levels)
    for la, lb in zip(want.counts.levels, got.counts.levels):
        for f in fields(LevelCounts):
            a, b = getattr(la, f.name), getattr(lb, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), (la.level, f.name)
            else:
                assert a == b, (la.level, f.name)
    assert want.timing.total_seconds == got.timing.total_seconds


@pytest.mark.skipif(not CNATIVE_AVAILABLE, reason="no usable C toolchain")
class TestPureTopDown:
    """Whole runs with every level top-down, ``cnative`` vs ``activeset``.

    A wrong discovery order within a level only shows at the *next*
    top-down level (it decides who offers a child first), which a hybrid
    run — a top-down level or two, then bottom-up — rarely reaches.
    """

    @pytest.mark.parametrize("scale, nodes, config_kwargs", [
        (10, 1, {}),
        (12, 2, {}),
        (11, 4, {"degree_balanced": True}),
    ])
    def test_runs_match_activeset(self, scale, nodes, config_kwargs):
        graph = rmat_graph(scale=scale, edgefactor=8, seed=scale)
        cluster = paper_cluster(nodes=nodes)
        roots = np.argsort(graph.degrees())[::-max(1, graph.num_vertices // 5)]
        engines = {
            kernel: BFSEngine(graph, cluster, BFSConfig(
                kernel=kernel, mode=TraversalMode.TOP_DOWN, **config_kwargs
            ))
            for kernel in ("activeset", "cnative")
        }
        for root in roots.tolist():
            want = engines["activeset"].run(root)
            assert want.levels > 2 or want.visited < 4
            assert_same_runs(want, engines["cnative"].run(root))

    @pytest.mark.parametrize("k", [3, 64])
    def test_batches_match_activeset(self, k):
        from repro.core.multisource import MultiSourceEngine

        graph = rmat_graph(scale=10, edgefactor=8, seed=7)
        cluster = paper_cluster(nodes=2)
        roots = np.argsort(graph.degrees())[::-1][:k].tolist()
        want, got = (
            MultiSourceEngine(graph, cluster, BFSConfig(
                kernel=kernel, mode=TraversalMode.TOP_DOWN
            )).run_batch(roots)
            for kernel in ("activeset", "cnative")
        )
        for a, b in zip(want, got):
            assert_same_runs(a, b)


class TestTopDownDedup:
    """The two dedup paths (argsort vs. linear scatter) are equivalent."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_paths_agree_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        size = int(rng.integers(1, 4000))
        children = rng.integers(0, n, size=size)
        parents = rng.integers(0, n, size=size)
        a = _dedup_sorted(children, parents)
        b = _dedup_dense(children, parents, n)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_first_occurrence_parent_wins(self):
        children = np.array([7, 3, 7, 3, 9])
        parents = np.array([1, 2, 3, 4, 5])
        for kids, folks in (
            _dedup_sorted(children, parents),
            _dedup_dense(children, parents, 10),
            dedup_first_parent(children, parents, 10),
        ):
            assert kids.tolist() == [3, 7, 9]
            assert folks.tolist() == [2, 1, 5]

    def test_dispatch_empty(self):
        c = np.zeros(0, dtype=np.int64)
        kids, folks = dedup_first_parent(c, c, 100)
        assert kids.size == 0 and folks.size == 0


class TestRegistryAndResolution:
    def test_available_backends(self):
        names = available_backends()
        assert "reference" in names and "activeset" in names
        # cnative is always *registered*, even when it cannot build here.
        assert "cnative" in names

    def test_available_backends_detail(self):
        detail = available_backends(detail=True)
        assert set(detail) == set(available_backends())
        assert detail["reference"] == (True, None)
        assert detail["activeset"] == (True, None)
        ok, reason = detail["cnative"]
        assert ok is CNATIVE_AVAILABLE
        assert (reason is None) if ok else isinstance(reason, str)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("warp-drive")

    def test_engine_rejects_unknown_kernel(self):
        graph = path_graph(256)
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            BFSEngine(graph, paper_cluster(nodes=1), BFSConfig(kernel="nope"))

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert default_backend().name == "reference"
        assert resolve_backend(None).name == "reference"
        monkeypatch.delenv("REPRO_KERNEL")
        assert default_backend().name == "activeset"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        backend = resolve_backend(BFSConfig(kernel="activeset"))
        assert backend.name == "activeset"

    def test_backend_rejects_bad_chunk(self):
        with pytest.raises(ConfigError, match="chunk"):
            ActiveSetBackend(chunk=0)

    def test_scan_wrapper_uses_process_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        out, _ = scan_level(path_graph(6), default_backend(), [2], [2], None)
        assert out.chunk_rounds == 1  # reference: one full pass
        assert out.discovered.tolist() == [1, 3]
