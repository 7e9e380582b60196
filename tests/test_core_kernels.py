"""Tests for the BFS kernels (rank state, top-down, bottom-up) and the
hybrid direction policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, Bitmap, SummaryBitmap, TraversalMode
from repro.core import topdown
from repro.core.counts import Direction
from repro.core.hybrid import DirectionPolicy, FrontierStats
from repro.core.kernels import CNativeBackend, default_backend, get_backend
from repro.core.state import RankState
from repro.core.topdown import TopDownPairs
from repro.errors import ConfigError, SimulationError
from repro.graph import Graph, Partition1D, path_graph, star_graph
from repro.graph.generators import cycle_graph


def single_rank_state(graph):
    part = Partition1D(graph.num_vertices, 1)
    return RankState(part.extract_local(graph, 0)), part


def bottom_up(graph, parent, in_queue, summary):
    """One bottom-up level on one rank with the default backend."""
    bounds = np.array([0, graph.num_vertices], dtype=np.int64)
    return default_backend().bottom_up_scan(
        graph, parent, in_queue, summary, bounds
    )


def visited(n, *vertices):
    """A parent array with ``vertices`` visited (their own parents)."""
    parent = np.full(n, -1, dtype=np.int64)
    parent[list(vertices)] = vertices
    return parent


class TestRankState:
    def test_discover_skips_visited(self):
        st, _ = single_rank_state(path_graph(5))
        st.discover(np.array([2]), np.array([1]))
        new = st.discover(np.array([2]), np.array([3]))
        assert new.size == 0
        assert st.parent[2] == 1

    def test_unexplored_degree_tracked(self):
        g = star_graph(5)
        st, _ = single_rank_state(g)
        before = st.unexplored_degree
        st.discover(np.array([0]), np.array([0]))
        assert st.unexplored_degree == before - 4

    def test_to_local_range_check(self):
        g = path_graph(8)
        part = Partition1D(8, 2)
        st = RankState(part.extract_local(g, 1))
        assert st.to_local(np.array([4])).tolist() == [0]
        with pytest.raises(SimulationError):
            st.to_local(np.array([3]))

    def test_discover_shape_mismatch(self):
        st, _ = single_rank_state(path_graph(3))
        with pytest.raises(SimulationError):
            st.discover(np.array([0, 1]), np.array([0]))


def expand(graph, part, *frontiers):
    """Run the numpy expansion stage with one lane per given frontier."""
    owner_of = part.owner(np.arange(graph.num_vertices))
    return topdown.expand_pairs(
        graph,
        [np.asarray(f, dtype=np.int64) for f in frontiers],
        owner_of,
        part.num_parts,
    )


def oracle_step(graph, bounds, frontiers, parent, rows):
    """The top-down level contract with Python dicts and sets.

    Per lane and sender the first offer of each child (frontier order,
    then CSR order) survives and costs 16 bytes to the child's owner,
    visited or not; a child unvisited before the level takes the lowest
    sender's offer; discoveries come out in (owner, sender, child)
    order.  Writes ``parent``; returns (frontiers, examined, send_bytes,
    disc_degree) like :class:`TopDownResult`.
    """
    n, ranks, lanes = graph.num_vertices, len(bounds) - 1, len(frontiers)
    owner = np.searchsorted(bounds, np.arange(n), side="right") - 1
    adj = [
        graph.targets[graph.offsets[v]:graph.offsets[v + 1]].tolist()
        for v in range(n)
    ]
    examined = np.zeros((lanes, ranks), dtype=np.int64)
    send = np.zeros((lanes, ranks, ranks), dtype=np.int64)
    degree = np.zeros((lanes, ranks), dtype=np.int64)
    new = []
    for b, frontier in enumerate(frontiers):
        offered = [dict() for _ in range(ranks)]  # sender -> child -> parent
        for u in frontier.tolist():
            examined[b, owner[u]] += len(adj[u])
            for v in adj[u]:
                offered[owner[u]].setdefault(v, u)
        for i in range(ranks):
            for v in offered[i]:
                send[b, i, owner[v]] += 16
        row = int(rows[b])
        found = sorted(
            (owner[v], min(i for i in range(ranks) if v in offered[i]), v)
            for v in set().union(*offered)
            if parent[row, v] < 0
        )
        for o, i, v in found:
            parent[row, v] = offered[i][v]
            degree[b, o] += len(adj[v])
        new.append([v for _, _, v in found])
    return new, examined, send, degree


def assert_step_matches_oracle(
    backend, graph, bounds, frontiers, parent, rows
):
    """``backend.top_down_expand`` against :func:`oracle_step`."""
    want_parent = parent.copy()
    want = oracle_step(graph, bounds, frontiers, want_parent, rows)
    n = graph.num_vertices
    owner_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    res = backend.top_down_expand(
        graph, frontiers, parent, rows, owner_of, bounds
    )
    assert [f.tolist() for f in res.frontiers] == want[0], backend.name
    assert np.array_equal(res.examined_edges, want[1]), backend.name
    assert np.array_equal(res.send_bytes, want[2]), backend.name
    assert np.array_equal(res.disc_degree, want[3]), backend.name
    assert np.array_equal(parent, want_parent), backend.name


def rank_major(rng, owner, vertices):
    """``vertices`` shuffled, then stably grouped by owner: rank-major
    with an arbitrary order within each rank."""
    vertices = rng.permutation(vertices)
    return vertices[np.argsort(owner[vertices], kind="stable")].astype(
        np.int64
    )


def random_step_case(seed):
    """A random graph, partition, lane frontiers and parent table."""
    from repro.graph import from_edge_arrays

    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    ranks = int(rng.integers(1, 5))
    lanes = int(rng.integers(1, 4))
    m = int(rng.integers(n, 4 * n))
    g = from_edge_arrays(n, rng.integers(0, n, m), rng.integers(0, n, m))
    part = Partition1D(n, ranks)
    owner = part.owner(np.arange(n))
    parent = np.full((lanes, n), -1, dtype=np.int64)
    parent[rng.random((lanes, n)) < 0.3] = 0  # already visited
    frontiers = [
        rank_major(rng, owner, rng.permutation(n)[: int(rng.integers(0, n))])
        for _ in range(lanes)
    ]
    rows = rng.permutation(lanes)  # lane b writes parent row rows[b]
    return g, part.bounds, frontiers, parent, rows


def native_backend():
    ok, reason = CNativeBackend.availability()
    if not ok:
        pytest.skip(f"cnative unavailable: {reason}")
    return CNativeBackend()


class TestTopDown:
    def test_expand_routes_to_owners(self):
        g = path_graph(8)
        part = Partition1D(8, 2)
        # Frontier = vertex 3 (rank 0); neighbours are 2 (owned by rank
        # 0) and 4 (owned by rank 1).
        pairs = expand(g, part, [3])
        assert pairs.examined_edges.tolist() == [[2, 0]]
        assert pairs.child.tolist() == [2, 4]
        assert pairs.parent.tolist() == [3, 3]
        assert pairs.sender.tolist() == [0, 0]
        assert pairs.owner.tolist() == [0, 1]
        assert pairs.send_bytes.tolist() == [[[16, 16], [0, 0]]]

    def test_expand_dedupes_children(self):
        g = cycle_graph(4)
        part = Partition1D(4, 1)
        # Vertices 0 and 2 are both adjacent to 1 and 3.
        pairs = expand(g, part, [0, 2])
        assert pairs.child.tolist() == [1, 3]  # once despite two finders
        assert pairs.parent.tolist() == [0, 0]  # first finder wins
        assert pairs.examined_edges.tolist() == [[4]]

    def test_expand_empty_frontier(self):
        g = path_graph(4)
        part = Partition1D(4, 2)
        pairs = expand(g, part, [])
        assert pairs.examined_edges.tolist() == [[0, 0]]
        assert pairs.child.size == 0
        assert not pairs.send_bytes.any()

    def test_apply_received_discovers_once(self):
        g = path_graph(4)
        part = Partition1D(4, 2)
        # Sender 0 offers (1 <- 0) and (2 <- 1); sender 1 offers (1 <- 2).
        pairs = TopDownPairs(
            lane=np.zeros(3, dtype=np.int64),
            sender=np.array([0, 0, 1]),
            owner=np.array([0, 1, 0]),
            child=np.array([1, 2, 1]),
            parent=np.array([0, 1, 2]),
            examined_edges=np.zeros((1, 2), dtype=np.int64),
            send_bytes=np.zeros((1, 2, 2), dtype=np.int64),
        )
        parent = np.full((1, 4), -1, dtype=np.int64)
        (new,), disc_degree = topdown.apply_received(
            pairs, parent, np.zeros(1, dtype=np.int64), g.degrees(), 2
        )
        assert new.tolist() == [1, 2]
        assert parent[0].tolist() == [-1, 0, 1, -1]  # lowest sender wins
        assert disc_degree.tolist() == [[2, 2]]

    def test_apply_received_empty(self):
        g = path_graph(4)
        part = Partition1D(4, 1)
        parent = np.full((1, 4), -1, dtype=np.int64)
        (new,), disc_degree = topdown.apply_received(
            expand(g, part, []), parent, np.zeros(1, dtype=np.int64),
            g.degrees(), 1,
        )
        assert new.size == 0
        assert disc_degree.tolist() == [[0]]

    @pytest.mark.parametrize("seed", range(12))
    def test_step_matches_brute_force(self, seed):
        """Every numpy backend's ``top_down_expand`` against
        :func:`oracle_step` on tiny graphs."""
        for name in ("reference", "activeset"):
            assert_step_matches_oracle(
                get_backend(name), *random_step_case(seed)
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_native_step_matches_brute_force(self, seed):
        """The same cases through ``cnative``'s one C call."""
        assert_step_matches_oracle(native_backend(), *random_step_case(seed))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        words=st.integers(1, 4),
        aligned=st.booleans(),
        ranks=st.integers(1, 8),
        lanes=st.sampled_from([1, 2, 3, 4, 5, 64]),
        visited_density=st.sampled_from([0.0, 0.3, 0.9]),
        frontier_density=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_backends_match_brute_force_oracle(
        self, seed, words, aligned, ranks, lanes, visited_density,
        frontier_density,
    ):
        """Every backend against :func:`oracle_step` on random CSRs with
        zero-degree rows, duplicate edges and self-loops, over 1-8 ranks
        whose bounds are word-aligned or not (empty ranks included)."""
        rng = np.random.default_rng(seed)
        n = 64 * words if aligned else int(rng.integers(1, 64 * words + 1))
        degs = rng.integers(0, 9, n) * (rng.random(n) < 0.8)
        offsets = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
        targets = rng.integers(0, n, int(offsets[-1])).astype(np.int64)
        for v in np.flatnonzero(degs >= 2)[::3]:
            targets[offsets[v] + 1] = targets[offsets[v]]  # duplicate edge
            if v % 2:
                targets[offsets[v]] = v  # self-loop
        graph = Graph(n, offsets, targets)
        unit = 64 if aligned else 1
        cuts = np.sort(rng.integers(0, n // unit + 1, ranks - 1)) * unit
        bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
        owner = np.searchsorted(bounds, np.arange(n), side="right") - 1
        # One spare parent row, so rows[b] != b is exercised.
        parent = np.where(
            rng.random((lanes + 1, n)) < visited_density,
            rng.integers(0, n, (lanes + 1, n)), -1,
        ).astype(np.int64)
        frontiers = [
            rank_major(rng, owner, np.flatnonzero(
                rng.random(n) < frontier_density
            ))
            for _ in range(lanes)
        ]
        rows = rng.permutation(lanes + 1)[:lanes].astype(np.int64)
        backends = [get_backend("reference"), get_backend("activeset")]
        if CNativeBackend.availability()[0]:
            backends.append(CNativeBackend())
        for backend in backends:
            assert_step_matches_oracle(
                backend, graph, bounds, frontiers, parent.copy(), rows
            )

    def test_native_step_rejects_bad_inputs(self):
        """Buffers and frontier order are checked before anything is
        written."""
        backend = native_backend()
        g = path_graph(8)
        bounds = np.array([0, 3, 8], dtype=np.int64)
        owner_of = np.searchsorted(bounds, np.arange(8), side="right") - 1
        parent = np.full((1, 8), -1, dtype=np.int64)
        rows = np.zeros(1, dtype=np.int64)
        for frontier, p, r, b in (
            ([5, 1], parent, rows, bounds),  # rank 1's vertex before rank 0's
            ([9], parent, rows, bounds),  # not a vertex
            ([1], parent, np.array([1]), bounds),  # no such parent row
            ([1], parent, rows, np.array([0, 3, 7])),  # bounds miss vertex 7
            ([1], parent, rows, np.array([0, 5, 3, 8])),  # decreasing
            ([1], parent.astype(np.int32), rows, bounds),  # wrong dtype
            ([1], parent[:, :4], rows, bounds),  # parent/CSR size mismatch
            ([1], parent, np.zeros(2, dtype=np.int64), bounds),  # rows/lanes
        ):
            before = p.copy()
            with pytest.raises(ConfigError):
                backend.top_down_expand(
                    g, [np.array(frontier, dtype=np.int64)], p, r, owner_of,
                    np.asarray(b, dtype=np.int64),
                )
            assert np.array_equal(p, before)


class TestBottomUp:
    def setup_method(self):
        # Path 0-1-2-3-4-5, frontier = {2}; unvisited = all but 2.
        self.g = path_graph(6)
        self.parent = visited(6, 2)
        self.inq = Bitmap.from_indices(6, np.array([2]))

    def test_scan_finds_neighbors_of_frontier(self):
        res = bottom_up(self.g, self.parent, self.inq, None)
        assert res.discovered.tolist() == [1, 3]
        assert self.parent[1] == 2
        assert self.parent[3] == 2
        assert res.rank_candidates.tolist() == [5]  # unvisited, non-isolated
        assert res.rank_disc_degree.tolist() == [4]

    def test_early_exit_examined_counts(self):
        res = bottom_up(self.g, self.parent, self.inq, None)
        # v0: checks 1 -> miss (1 edge). v1: checks 0 (miss), 2 (hit) -> 2.
        # v3: checks 2 (hit) -> 1. v4: 3, 5 -> 2 misses. v5: 4 -> 1 miss.
        assert res.examined_edges == 1 + 2 + 1 + 2 + 1
        # No summary: every examined edge reads in_queue.
        assert np.array_equal(res.rank_inqueue_reads, res.rank_examined_edges)

    def test_summary_reduces_inqueue_reads(self):
        # Frontier block is bits 0..63; all of path fits in one block, so
        # use a bigger graph for a meaningful filter.
        g = path_graph(256)
        inq = Bitmap.from_indices(256, np.array([100]))
        summary = SummaryBitmap.build(inq, 64)
        res = bottom_up(g, visited(256, 100), inq, summary)
        res_nosum = bottom_up(g, visited(256, 100), inq, None)
        assert res.examined_edges > 0
        assert res.rank_inqueue_reads.sum() < res.examined_edges
        # The summary never changes what is discovered or examined.
        assert res.examined_edges == res_nosum.examined_edges
        assert np.array_equal(res.discovered, res_nosum.discovered)

    def test_scan_without_candidates(self):
        res = bottom_up(self.g, visited(6, *range(6)), self.inq, None)
        assert res.rank_candidates.tolist() == [0]
        assert res.discovered.size == 0

    def test_empty_frontier_discovers_nothing(self):
        res = bottom_up(self.g, self.parent, Bitmap(6), None)
        assert res.discovered.size == 0
        # Every unvisited vertex scanned its whole adjacency.
        degrees = self.g.degrees()
        assert res.examined_edges == degrees[self.parent < 0].sum()


class TestDirectionPolicy:
    def stats(self, n_f=1, m_f=1, m_u=1000, n=1000):
        return FrontierStats(
            frontier_vertices=n_f,
            frontier_edges=m_f,
            unexplored_edges=m_u,
            num_vertices=n,
        )

    def test_starts_top_down(self):
        p = DirectionPolicy(BFSConfig())
        assert p.decide(self.stats()) == Direction.TOP_DOWN

    def test_switches_to_bottom_up_on_alpha(self):
        p = DirectionPolicy(BFSConfig(alpha=14))
        assert p.decide(self.stats(m_f=1, m_u=1000)) == Direction.TOP_DOWN
        assert p.decide(self.stats(m_f=100, m_u=1000)) == Direction.BOTTOM_UP

    def test_switches_back_on_beta_and_stays(self):
        p = DirectionPolicy(BFSConfig(alpha=14, beta=24))
        p.decide(self.stats(m_f=500, m_u=1000))  # -> bottom-up
        assert p.direction == Direction.BOTTOM_UP
        assert p.decide(self.stats(n_f=10, n=1000)) == Direction.TOP_DOWN
        # Even with a huge frontier again, no second bottom-up phase.
        assert p.decide(self.stats(m_f=10**9, m_u=1)) == Direction.TOP_DOWN

    def test_pure_modes(self):
        p = DirectionPolicy(BFSConfig(mode=TraversalMode.TOP_DOWN))
        assert p.decide(self.stats(m_f=10**9, m_u=1)) == Direction.TOP_DOWN
        p = DirectionPolicy(BFSConfig(mode=TraversalMode.BOTTOM_UP))
        assert p.decide(self.stats()) == Direction.BOTTOM_UP
