"""Cross-cutting invariants of the BFS engine's accounting, checked over
randomized graphs and configurations.

These are the bookkeeping identities the timing model silently relies
on; if one breaks, every priced figure is suspect.
"""

import dataclasses as dc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, BFSEngine
from repro.core.counts import Direction
from repro.graph import erdos_renyi_graph, rmat_graph
from repro.machine import paper_cluster
from repro.mpi import BindingPolicy


def check_invariants(graph, result):
    counts = result.counts
    levels = counts.levels

    # (1) Discoveries across levels equal the reached set minus the root.
    discovered_total = sum(int(l.discovered.sum()) for l in levels)
    assert discovered_total == result.visited - 1
    assert counts.visited_vertices == result.visited

    # (2) Each level's frontier is the previous level's discoveries
    # (level 0's frontier is the root).
    assert int(levels[0].frontier_local.sum()) == 1
    for prev, cur in zip(levels, levels[1:]):
        assert int(cur.frontier_local.sum()) == int(prev.discovered.sum())

    # (3) The last level discovers nothing (that is the termination test).
    assert int(levels[-1].discovered.sum()) == 0

    # (4) Bottom-up accounting: a candidate is examined at least once
    # unless it has no edges; discoveries never exceed candidates; the
    # summary can only reduce in_queue reads.
    for l in levels:
        if l.direction == Direction.BOTTOM_UP:
            assert int(l.discovered.sum()) <= int(l.candidates.sum())
            assert int(l.inqueue_reads.sum()) <= int(l.examined_edges.sum())
            assert int(l.examined_edges.sum()) >= int(l.discovered.sum())
        else:
            # Top-down traffic carries at most one pair per examined edge.
            if l.td_send_bytes is not None:
                assert (
                    l.td_send_bytes.sum()
                    <= 16 * int(l.examined_edges.sum()) + 16
                )

    # (5) Parents of reached vertices lie in the reached set.
    reached = result.parent >= 0
    parents = result.parent[reached]
    assert np.all(reached[parents])


CONFIGS = [
    BFSConfig.original_ppn8(),
    BFSConfig.original_ppn1(),
    BFSConfig.share_all_variant(),
    BFSConfig.granularity_variant(256),
    dc.replace(BFSConfig.original_ppn8(), alpha=3.0, beta=8.0),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_invariants_on_rmat(config):
    graph = rmat_graph(scale=12, seed=11)
    cluster = paper_cluster(nodes=2)
    root = int(np.argmax(graph.degrees()))
    result = BFSEngine(graph, cluster, config).run(root)
    check_invariants(graph, result)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    p=st.floats(min_value=0.01, max_value=0.2),
    alpha=st.floats(min_value=2.0, max_value=100.0),
)
def test_property_invariants_random_graphs(seed, p, alpha):
    graph = erdos_renyi_graph(192, p, seed=seed)
    if graph.degrees().max() == 0:
        return
    cluster = paper_cluster(nodes=1)
    config = dc.replace(
        BFSConfig(ppn=2, binding=BindingPolicy.BIND_TO_SOCKET), alpha=alpha
    )
    root = int(np.argmax(graph.degrees()))
    result = BFSEngine(graph, cluster, config).run(root)
    check_invariants(graph, result)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_config_does_not_change_the_tree_levels(seed):
    """Every configuration is an implementation of the same algorithm:
    the BFS *levels* (not necessarily the parent choices) must agree."""
    from repro.core.validate import compute_levels

    graph = rmat_graph(scale=11, seed=seed % 17)
    cluster = paper_cluster(nodes=2)
    root = int(np.argmax(graph.degrees()))
    reference = None
    for config in (BFSConfig.original_ppn8(), BFSConfig.par_allgather_variant()):
        result = BFSEngine(graph, cluster, config).run(root)
        levels = compute_levels(graph, root, result.parent)
        if reference is None:
            reference = levels
        else:
            assert np.array_equal(levels, reference)
