"""Integration tests: the distributed hybrid BFS against networkx ground
truth, across graph families, cluster shapes and every optimization
variant."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, BFSEngine, CommConfig, TraversalMode, paper_variants
from repro.core.validate import validate_parent_tree
from repro.errors import ConfigError, GraphError
from repro.graph import (
    binary_tree_graph,
    erdos_renyi_graph,
    from_edge_arrays,
    grid_graph,
    rmat_graph,
)
from repro.machine import paper_cluster
from repro.mpi import BindingPolicy
from repro.mpi.simcomm import SimComm
from repro.obs.tracer import SpanTracer


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for v in range(graph.num_vertices):
        for u in graph.neighbors(v):
            g.add_edge(v, int(u))
    return g


def reference_levels(graph, root):
    g = to_networkx(graph)
    dist = nx.single_source_shortest_path_length(g, root)
    out = np.full(graph.num_vertices, -1, dtype=np.int64)
    for v, d in dist.items():
        out[v] = d
    return out


def check_against_networkx(graph, cluster, config, root):
    engine = BFSEngine(graph, cluster, config)
    res = engine.run(root)
    levels = validate_parent_tree(graph, root, res.parent)
    expected = reference_levels(graph, root)
    assert np.array_equal(levels, expected), "BFS levels differ from networkx"
    return res


def padded(graph_fn, n, *args, **kwargs):
    """Build a graph padded to a 64*ranks-aligned vertex count."""
    return graph_fn(n, *args, **kwargs)


class TestEngineCorrectness:
    def test_grid_two_nodes(self):
        g = grid_graph(16, 32)  # 512 vertices, multiple of 64*8
        cluster = paper_cluster(nodes=1)
        res = check_against_networkx(g, cluster, BFSConfig.original_ppn8(), 0)
        assert res.visited == 512
        assert res.levels == 16 + 32 - 1

    def test_binary_tree(self):
        g = binary_tree_graph(8)  # 511 vertices -> not aligned; pad below
        src = np.repeat(np.arange(1, 511) - 1, 0)  # unused
        # Rebuild with one padding vertex to reach 512.
        edges_parent = (np.arange(1, 511) - 1) // 2
        g = from_edge_arrays(512, edges_parent, np.arange(1, 511))
        cluster = paper_cluster(nodes=1)
        res = check_against_networkx(g, cluster, BFSConfig.original_ppn8(), 0)
        assert res.levels == 9

    def test_rmat_all_paper_variants(self):
        g = rmat_graph(scale=12, seed=7)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(g.degrees()))
        reference = reference_levels(g, root)
        for name, cfg in paper_variants().items():
            engine = BFSEngine(g, cluster, cfg)
            res = engine.run(root)
            levels = validate_parent_tree(g, root, res.parent)
            assert np.array_equal(levels, reference), name

    def test_pure_top_down_and_bottom_up_agree(self):
        g = rmat_graph(scale=11, seed=9)
        cluster = paper_cluster(nodes=1)
        root = int(np.argmax(g.degrees()))
        expected = reference_levels(g, root)
        for mode in TraversalMode:
            cfg = BFSConfig(mode=mode)
            res = BFSEngine(g, cluster, cfg).run(root)
            levels = validate_parent_tree(g, root, res.parent)
            assert np.array_equal(levels, expected), mode

    def test_ppn1_policies(self):
        g = rmat_graph(scale=11, seed=5)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(g.degrees()))
        expected = reference_levels(g, root)
        for policy in (BindingPolicy.INTERLEAVE, BindingPolicy.NOFLAG):
            cfg = BFSConfig(ppn=1, binding=policy)
            res = BFSEngine(g, cluster, cfg).run(root)
            assert np.array_equal(
                validate_parent_tree(g, root, res.parent), expected
            )

    def test_disconnected_component_only(self):
        # Two components: 0-1-2 ... and an unreachable clique.
        src = np.array([0, 1, 60, 61, 62])
        dst = np.array([1, 2, 61, 62, 63])
        g = from_edge_arrays(64, src, dst)
        cluster = paper_cluster(nodes=1)
        cfg = BFSConfig(ppn=1, binding=BindingPolicy.INTERLEAVE)
        res = BFSEngine(g, cluster, cfg).run(0)
        assert res.visited == 3
        assert res.parent[60] == -1
        validate_parent_tree(g, 0, res.parent)

    def test_root_only_frontier(self):
        # Root with no neighbours in its component beyond itself.
        g = from_edge_arrays(64, [0], [1])
        cluster = paper_cluster(nodes=1)
        cfg = BFSConfig(ppn=1, binding=BindingPolicy.INTERLEAVE)
        res = BFSEngine(g, cluster, cfg).run(0)
        assert res.visited == 2
        assert res.levels == 2

    def test_various_granularities_same_tree(self):
        g = rmat_graph(scale=12, seed=3)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(g.degrees()))
        trees = []
        for gran in (64, 256, 1024):
            cfg = BFSConfig.granularity_variant(gran)
            res = BFSEngine(g, cluster, cfg).run(root)
            trees.append(
                validate_parent_tree(g, root, res.parent)
            )
        assert np.array_equal(trees[0], trees[1])
        assert np.array_equal(trees[0], trees[2])

    def test_no_summary_variant(self):
        g = rmat_graph(scale=11, seed=2)
        cluster = paper_cluster(nodes=1)
        root = int(np.argmax(g.degrees()))
        cfg = BFSConfig(comm=CommConfig(use_summary=False))
        res = BFSEngine(g, cluster, cfg).run(root)
        validate_parent_tree(g, root, res.parent)

    def test_alignment_requirement(self):
        g = erdos_renyi_graph(100, 0.1, seed=1)  # 100 not multiple of 512
        with pytest.raises(ConfigError):
            BFSEngine(g, paper_cluster(nodes=1), BFSConfig.original_ppn8())

    def test_root_out_of_range(self):
        g = grid_graph(8, 8)
        engine = BFSEngine(
            g,
            paper_cluster(nodes=1),
            BFSConfig(ppn=1, binding=BindingPolicy.INTERLEAVE),
        )
        with pytest.raises(GraphError):
            engine.run(64)

    def test_engine_reusable_across_roots(self):
        g = rmat_graph(scale=11, seed=4)
        engine = BFSEngine(
            g, paper_cluster(nodes=1), BFSConfig.original_ppn8()
        )
        roots = np.flatnonzero(g.degrees() > 0)[:3]
        for root in roots:
            res = engine.run(int(root))
            validate_parent_tree(g, int(root), res.parent)


class TestEngineAccounting:
    def test_three_phase_structure_on_rmat(self):
        """R-MAT runs follow the paper's top-down / bottom-up / top-down
        phase sequence."""
        g = rmat_graph(scale=13, seed=3)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(g.degrees()))
        res = BFSEngine(g, cluster, BFSConfig.original_ppn8()).run(root)
        dirs = [lvl.direction for lvl in res.counts.levels]
        assert "bottom_up" in dirs
        first_bu = dirs.index("bottom_up")
        last_bu = len(dirs) - 1 - dirs[::-1].index("bottom_up")
        assert all(d == "bottom_up" for d in dirs[first_bu : last_bu + 1])
        assert all(d == "top_down" for d in dirs[:first_bu])

    def test_traversed_edges_match_component(self):
        g = rmat_graph(scale=11, seed=8)
        cluster = paper_cluster(nodes=1)
        root = int(np.argmax(g.degrees()))
        res = BFSEngine(g, cluster, BFSConfig.original_ppn8()).run(root)
        reached = res.parent >= 0
        expected = int(g.degrees()[reached].sum()) // 2
        assert res.traversed_edges == expected
        assert res.teps > 0

    def test_counts_validate(self):
        g = rmat_graph(scale=11, seed=8)
        res = BFSEngine(
            g, paper_cluster(nodes=1), BFSConfig.original_ppn8()
        ).run(int(np.argmax(g.degrees())))
        res.counts.validate()
        assert res.counts.num_levels == res.levels
        assert res.counts.total_examined_edges() > 0

    def test_timing_positive_and_consistent(self):
        g = rmat_graph(scale=12, seed=8)
        res = BFSEngine(
            g, paper_cluster(nodes=2), BFSConfig.original_ppn8()
        ).run(int(np.argmax(g.degrees())))
        bd = res.timing.breakdown
        assert res.seconds > 0
        total_from_levels = sum(lt.total_ns for lt in res.timing.levels)
        assert total_from_levels == pytest.approx(bd.total, rel=1e-9)
        assert bd.bu_comm > 0 and bd.bu_compute > 0

    def test_alltoallv_priced_once_per_run(self, monkeypatch):
        """Fault-free and untraced, the level loop skips the data-less
        alltoallv: the run's one ``alltoallv_time`` call is assemble's,
        over every top-down level's byte matrix at once."""
        import repro.core.engine as engine_mod

        calls, pricing = [], []
        price, assemble = SimComm.alltoallv_time, engine_mod.assemble

        def counted(comm, send_bytes):
            calls.append((bool(pricing), np.shape(send_bytes)))
            return price(comm, send_bytes)

        def assembling(*args, **kwargs):
            pricing.append(True)
            try:
                return assemble(*args, **kwargs)
            finally:
                pricing.pop()

        monkeypatch.setattr(SimComm, "alltoallv_time", counted)
        monkeypatch.setattr(engine_mod, "assemble", assembling)
        g = rmat_graph(scale=12, seed=8)
        res = BFSEngine(g, paper_cluster(nodes=2), BFSConfig()).run(
            int(np.argmax(g.degrees()))
        )
        td = sum(lc.direction == "top_down" for lc in res.counts.levels)
        ranks = res.counts.num_ranks
        assert td >= 2
        assert calls == [(True, (td, ranks, ranks))]

    def test_traced_run_still_emits_alltoallv_events(self):
        """With a recording tracer every top-down level still runs its
        alltoallv, and each event's time is the level's priced one."""
        g = rmat_graph(scale=12, seed=8)
        res = BFSEngine(
            g, paper_cluster(nodes=2), BFSConfig(), tracer=SpanTracer()
        ).run(int(np.argmax(g.degrees())))
        events = [
            ev.max_time_ns for ev in res.telemetry.comm_events
            if ev.op == "alltoallv"
        ]
        priced = [
            lt.comm_steps["alltoallv"] for lt in res.timing.levels
            if lt.direction == "top_down"
        ]
        assert len(priced) >= 2
        assert events == priced

    def test_summary_reads_depend_on_granularity(self):
        """Raising granularity increases in_queue reads (fewer zero summary
        bits filter them) — the measured Fig. 16 mechanism."""
        g = rmat_graph(scale=13, seed=6)
        cluster = paper_cluster(nodes=1)
        root = int(np.argmax(g.degrees()))
        reads = {}
        for gran in (64, 1024):
            cfg = BFSConfig.granularity_variant(gran)
            res = BFSEngine(g, cluster, cfg).run(root)
            reads[gran] = sum(
                int(lvl.inqueue_reads.sum()) for lvl in res.counts.levels
            )
        assert reads[1024] >= reads[64]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    p=st.floats(min_value=0.02, max_value=0.3),
)
def test_property_engine_matches_networkx_on_random_graphs(seed, p):
    g = erdos_renyi_graph(128, p, seed=seed)
    deg = g.degrees()
    if deg.max() == 0:
        return
    root = int(np.argmax(deg))
    cluster = paper_cluster(nodes=1)
    cfg = BFSConfig(ppn=2, binding=BindingPolicy.BIND_TO_SOCKET)
    res = BFSEngine(g, cluster, cfg).run(root)
    levels = validate_parent_tree(g, root, res.parent)
    assert np.array_equal(levels, reference_levels(g, root))
