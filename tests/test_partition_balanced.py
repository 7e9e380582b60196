"""Tests for custom partition bounds and degree-balanced partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, BFSEngine
from repro.core.validate import validate_parent_tree
from repro.errors import ConfigError
from repro.graph import Partition1D, degree_balanced_bounds, rmat_graph
from repro.graph.builder import from_edge_arrays
from repro.machine import paper_cluster


class TestCustomBounds:
    def test_explicit_bounds(self):
        p = Partition1D(10, 2, bounds=np.array([0, 3, 10]))
        assert p.size_of(0) == 3
        assert p.size_of(1) == 7
        assert p.owner(2) == 0
        assert p.owner(3) == 1

    def test_empty_part_allowed(self):
        p = Partition1D(10, 3, bounds=np.array([0, 0, 5, 10]))
        assert p.size_of(0) == 0

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            Partition1D(10, 2, bounds=np.array([0, 3]))  # wrong length
        with pytest.raises(ConfigError):
            Partition1D(10, 2, bounds=np.array([1, 3, 10]))  # no 0 start
        with pytest.raises(ConfigError):
            Partition1D(10, 2, bounds=np.array([0, 3, 9]))  # wrong end
        with pytest.raises(ConfigError):
            Partition1D(10, 2, bounds=np.array([0, 7, 3]))  # decreasing


class TestDegreeBalancedBounds:
    def test_balances_edge_mass(self):
        """On a skewed graph the edge imbalance across parts must drop
        substantially compared to uniform blocks."""
        g = rmat_graph(scale=12, seed=9, permute_labels=False)
        parts = 8
        bounds = degree_balanced_bounds(g, parts, alignment=64)
        p_bal = Partition1D(g.num_vertices, parts, bounds=bounds)
        p_uni = Partition1D(g.num_vertices, parts)

        def edge_imbalance(p):
            masses = np.diff(g.offsets[p.bounds])
            return masses.max() / masses.mean()

        assert edge_imbalance(p_bal) < edge_imbalance(p_uni)

    def test_alignment_respected(self):
        g = rmat_graph(scale=12, seed=9)
        bounds = degree_balanced_bounds(g, 8, alignment=64)
        assert np.all(bounds % 64 == 0)
        assert bounds[0] == 0 and bounds[-1] == g.num_vertices

    def test_validation(self):
        g = rmat_graph(scale=10, seed=1)
        with pytest.raises(ConfigError):
            degree_balanced_bounds(g, 0)
        with pytest.raises(ConfigError):
            degree_balanced_bounds(g, 2, alignment=0)
        odd = from_edge_arrays(100, [0], [1])
        with pytest.raises(ConfigError):
            degree_balanced_bounds(odd, 2, alignment=64)

    def test_engine_correct_with_balanced_partition(self):
        import dataclasses as dc

        g = rmat_graph(scale=12, seed=9, permute_labels=False)
        cluster = paper_cluster(nodes=2)
        cfg = dc.replace(BFSConfig.original_ppn8(), degree_balanced=True)
        root = int(np.argmax(g.degrees()))
        res = BFSEngine(g, cluster, cfg).run(root)
        validate_parent_tree(g, root, res.parent)

        cfg_uniform = BFSConfig.original_ppn8()
        res_uniform = BFSEngine(g, cluster, cfg_uniform).run(root)
        assert res.visited == res_uniform.visited


@settings(max_examples=30, deadline=None)
@given(
    parts=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_balanced_bounds_are_valid_partition(parts, seed):
    g = rmat_graph(scale=10, seed=seed % 7)
    bounds = degree_balanced_bounds(g, parts, alignment=64)
    p = Partition1D(g.num_vertices, parts, bounds=bounds)
    # Every vertex has exactly one owner and ranges tile the space.
    owners = p.owner(np.arange(g.num_vertices))
    for part in range(parts):
        lo, hi = p.range_of(part)
        assert np.all(owners[lo:hi] == part)
