"""Tests for the R-MAT generator, partitioning, degree stats and IO."""

import numpy as np
import pytest

from repro.errors import ConfigError, GraphError
from repro.graph import (
    Partition1D,
    RmatParams,
    degree_statistics,
    generate_rmat_edges,
    load_edge_list,
    load_graph,
    rmat_graph,
    save_edge_list,
    save_graph,
)
from repro.graph.degree import sample_roots
from repro.graph.generators import star_graph


class TestRmatGenerator:
    def test_edge_count_and_range(self):
        edges = generate_rmat_edges(scale=8, edgefactor=16, seed=3)
        assert edges.num_edges == 16 * 256
        assert edges.num_vertices == 256
        assert edges.sources.min() >= 0
        assert edges.targets.max() < 256

    def test_deterministic_per_seed(self):
        e1 = generate_rmat_edges(scale=7, seed=11)
        e2 = generate_rmat_edges(scale=7, seed=11)
        assert np.array_equal(e1.sources, e2.sources)
        assert np.array_equal(e1.targets, e2.targets)

    def test_seed_changes_output(self):
        e1 = generate_rmat_edges(scale=7, seed=1)
        e2 = generate_rmat_edges(scale=7, seed=2)
        assert not np.array_equal(e1.sources, e2.sources)

    def test_skewed_degrees(self):
        """R-MAT graphs are scale-free-ish: max degree far above mean."""
        g = rmat_graph(scale=10, seed=5)
        stats = degree_statistics(g)
        assert stats.max_degree > 8 * stats.mean_degree
        assert stats.isolated_vertices > 0  # hallmark of Graph500 R-MAT

    def test_scale_zero(self):
        edges = generate_rmat_edges(scale=0, edgefactor=4)
        assert edges.num_vertices == 1
        assert edges.num_edges == 4  # all self-loops on vertex 0

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            RmatParams(a=0.9, b=0.2, c=0.2, d=0.2)
        with pytest.raises(GraphError):
            generate_rmat_edges(scale=-1)
        with pytest.raises(GraphError):
            generate_rmat_edges(scale=4, edgefactor=0)

    def test_meta_recorded(self):
        g = rmat_graph(scale=6, seed=9)
        assert g.meta["kind"] == "rmat"
        assert g.meta["scale"] == 6

    def test_permutation_spreads_hubs(self):
        """Without permutation hubs concentrate in low ids; with permutation
        the top-degree vertex is unlikely to always be vertex id 0."""
        g_plain = rmat_graph(scale=9, seed=4, permute_labels=False)
        deg = g_plain.degrees()
        # Recursive process puts most mass at low ids.
        assert deg[: 2**5].sum() > deg[-(2**5) :].sum()


class TestPartition1D:
    def test_balanced_sizes(self):
        p = Partition1D(10, 4)
        sizes = [p.size_of(i) for i in range(4)]
        assert sizes == [3, 3, 2, 2]
        assert sum(sizes) == 10

    def test_ranges_contiguous(self):
        p = Partition1D(100, 7)
        prev_hi = 0
        for i in range(7):
            lo, hi = p.range_of(i)
            assert lo == prev_hi
            prev_hi = hi
        assert prev_hi == 100

    def test_owner_scalar_and_vector(self):
        p = Partition1D(10, 4)
        assert p.owner(0) == 0
        assert p.owner(9) == 3
        owners = p.owner(np.arange(10))
        for v in range(10):
            lo, hi = p.range_of(int(owners[v]))
            assert lo <= v < hi

    def test_owner_out_of_range(self):
        p = Partition1D(10, 2)
        with pytest.raises(GraphError):
            p.owner(10)

    def test_more_parts_than_vertices(self):
        p = Partition1D(3, 5)
        sizes = [p.size_of(i) for i in range(5)]
        assert sizes == [1, 1, 1, 0, 0]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            Partition1D(10, 0)
        with pytest.raises(ConfigError):
            Partition1D(10, 3).range_of(3)


class TestDegree:
    def test_statistics(self):
        stats = degree_statistics(star_graph(5))
        assert stats.max_degree == 4
        assert stats.isolated_vertices == 0
        assert stats.mean_degree == pytest.approx(8 / 5)

    def test_sample_roots_nonisolated(self):
        g = rmat_graph(scale=8, seed=1)
        roots = sample_roots(g, 16, seed=3)
        assert len(set(roots.tolist())) == 16
        assert np.all(g.degrees()[roots] > 0)

    def test_sample_roots_too_many(self):
        with pytest.raises(ValueError):
            sample_roots(star_graph(4), 10)

    def test_sample_roots_deterministic(self):
        g = rmat_graph(scale=8, seed=1)
        r1 = sample_roots(g, 8, seed=7)
        r2 = sample_roots(g, 8, seed=7)
        assert np.array_equal(r1, r2)


class TestIO:
    def test_edge_list_round_trip(self, tmp_path):
        edges = generate_rmat_edges(scale=6, seed=4)
        path = tmp_path / "edges.npz"
        save_edge_list(path, edges)
        back = load_edge_list(path)
        assert back.num_vertices == edges.num_vertices
        assert np.array_equal(back.sources, edges.sources)

    def test_graph_round_trip(self, tmp_path):
        g = rmat_graph(scale=6, seed=4)
        path = tmp_path / "graph.npz"
        save_graph(path, g)
        back = load_graph(path)
        assert back.num_vertices == g.num_vertices
        assert np.array_equal(back.offsets, g.offsets)
        assert np.array_equal(back.targets, g.targets)
        assert back.meta == g.meta

    def test_kind_mismatch(self, tmp_path):
        g = rmat_graph(scale=5)
        path = tmp_path / "g.npz"
        save_graph(path, g)
        with pytest.raises(GraphError):
            load_edge_list(path)
