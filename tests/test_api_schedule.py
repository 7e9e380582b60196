"""Tests for the high-level API facade and the schedule explainer."""

import numpy as np
import pytest

from repro.core.api import compare_configs, optimization_stack, run_bfs
from repro.core import BFSConfig
from repro.errors import CommunicationError, GraphError
from repro.graph import from_edge_arrays, rmat_graph
from repro.machine import paper_cluster
from repro.machine.spec import MB
from repro.mpi import (
    AllgatherAlgorithm,
    BindingPolicy,
    ProcessMapping,
    SimComm,
)
from repro.mpi.schedule import explain_allgather


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=12, seed=7)


class TestRunBfs:
    def test_defaults(self, graph):
        root = int(np.argmax(graph.degrees()))
        res = run_bfs(graph, root, validate=True)
        assert res.visited > 0
        assert res.teps > 0

    def test_custom_cluster_and_config(self, graph):
        root = int(np.argmax(graph.degrees()))
        res = run_bfs(
            graph,
            root,
            cluster=paper_cluster(nodes=2),
            config=BFSConfig.share_all_variant(),
        )
        assert res.visited > 0


class TestCompareConfigs:
    def test_paper_scale_comparison(self, graph):
        comp = compare_configs(
            graph,
            {
                "baseline": BFSConfig.original_ppn1(),
                "optimized": BFSConfig.par_allgather_variant(),
            },
            cluster=paper_cluster(nodes=8),
            target_scale=31,
        )
        assert comp.best == "optimized"
        assert comp.speedup("optimized", "baseline") > 1.0
        assert comp.target_scale == 31

    def test_empty_configs_rejected(self, graph):
        with pytest.raises(GraphError):
            compare_configs(graph, {})

    def test_edgeless_graph_rejected(self):
        g = from_edge_arrays(512, [], [])
        with pytest.raises(GraphError):
            compare_configs(g, {"x": BFSConfig.original_ppn8()})

    def test_explicit_root(self, graph):
        root = int(np.flatnonzero(graph.degrees() > 0)[0])
        comp = compare_configs(
            graph, {"a": BFSConfig.original_ppn8()}, root=root
        )
        assert "a" in comp.teps

    def test_optimization_stack_order(self, graph):
        comp = optimization_stack(
            graph, cluster=paper_cluster(nodes=8), target_scale=31
        )
        assert set(comp.teps) == {
            "Original.ppn=1",
            "Original.ppn=8",
            "Share in_queue",
            "Share all",
            "Par allgather",
            "Granularity",
        }
        assert comp.speedup("Par allgather", "Original.ppn=1") > 1.3


class TestScheduleExplainer:
    @pytest.fixture(scope="class")
    def comm(self):
        cluster = paper_cluster(nodes=8)
        return SimComm(cluster, ProcessMapping(cluster, ppn=8))

    def test_leader_has_three_steps(self, comm):
        part = 64 * MB / comm.num_ranks
        steps = explain_allgather(comm, AllgatherAlgorithm.LEADER, part)
        assert [s.name for s in steps] == [
            "step 1 gather", "step 2 inter", "step 3 bcast",
        ]
        assert all(s.time_ns > 0 for s in steps)

    def test_shared_in_eliminates_bcast(self, comm):
        part = 64 * MB / comm.num_ranks
        steps = explain_allgather(comm, AllgatherAlgorithm.SHARED_IN, part)
        by_name = {s.name: s for s in steps}
        assert by_name["step 3 bcast"].channel == "none"
        assert by_name["step 3 bcast"].time_ns == 0.0
        assert by_name["step 1 gather"].time_ns > 0

    def test_shared_all_eliminates_both(self, comm):
        part = 64 * MB / comm.num_ranks
        steps = explain_allgather(comm, AllgatherAlgorithm.SHARED_ALL, part)
        by_name = {s.name: s for s in steps}
        assert by_name["step 1 gather"].channel == "none"
        assert by_name["step 3 bcast"].channel == "none"

    def test_parallel_mentions_subgroups(self, comm):
        part = 64 * MB / comm.num_ranks
        steps = explain_allgather(
            comm, AllgatherAlgorithm.PARALLEL_SHARED, part
        )
        inter = next(s for s in steps if s.name == "step 2 inter")
        assert "subgroups" in inter.description

    def test_ring_and_recursive_doubling(self, comm):
        steps_ring = explain_allgather(
            comm, AllgatherAlgorithm.RING, 4 * MB
        )
        assert len(steps_ring) == 1 and steps_ring[0].name == "ring"
        steps_rd = explain_allgather(
            comm, AllgatherAlgorithm.RECURSIVE_DOUBLING, 128.0
        )
        assert steps_rd[0].name == "recursive-dbl"

    def test_multi_leader_volume_warning(self, comm):
        steps = explain_allgather(
            comm, AllgatherAlgorithm.MULTI_LEADER, 4 * MB
        )
        assert "FULL payload" in steps[0].description

    def test_times_sum_to_allgather_time(self, comm):
        from repro.mpi import allgather_time

        part = 64 * MB / comm.num_ranks
        for algo in (
            AllgatherAlgorithm.LEADER,
            AllgatherAlgorithm.SHARED_IN,
            AllgatherAlgorithm.SHARED_ALL,
            AllgatherAlgorithm.PARALLEL_SHARED,
        ):
            steps = explain_allgather(comm, algo, part)
            total, _ = allgather_time(comm, algo, part)
            assert sum(s.time_ns for s in steps) == pytest.approx(total)

    def test_render(self, comm):
        steps = explain_allgather(
            comm, AllgatherAlgorithm.LEADER, 64 * MB / comm.num_ranks
        )
        text = "\n".join(s.render() for s in steps)
        assert "intra-node" in text and "inter-node" in text

    def test_negative_part_rejected(self, comm):
        with pytest.raises(CommunicationError):
            explain_allgather(comm, AllgatherAlgorithm.LEADER, -1.0)


def _comm(nodes, ppn):
    cluster = paper_cluster(nodes=nodes)
    return SimComm(cluster, ProcessMapping(cluster, ppn=ppn))


@pytest.mark.parametrize("algorithm", list(AllgatherAlgorithm), ids=lambda a: a.value)
def test_explained_bytes_add_up_to_the_channel_bytes(algorithm):
    """Bytes per node x nodes, summed over the shown steps, is what the
    schedule carries on its channels."""
    from repro.mpi import allgather_channel_bytes

    for nodes in (1, 2, 4, 16):
        for ppn in (2, 4, 8):
            comm = _comm(nodes, ppn)
            for part in (4 * MB, 1000.0, 0.0):
                shown = explain_allgather(comm, algorithm, part)
                carried = allgather_channel_bytes(comm, algorithm, part)
                assert sum(
                    s.bytes_moved_per_node for s in shown
                ) * nodes == pytest.approx(sum(carried.values()), rel=1e-12)


def test_ring_bytes_count_every_rank():
    """4 nodes x 8 ranks, 4 MB parts: every rank forwards 31 parts."""
    comm = _comm(4, 8)
    (ring,) = explain_allgather(comm, AllgatherAlgorithm.RING, 4 * MB)
    assert ring.bytes_moved_per_node == 8 * 31 * 4 * MB


def test_overlapped_bytes_include_the_inter_step():
    comm = _comm(4, 8)
    part = 4 * MB
    (overlapped,) = explain_allgather(
        comm, AllgatherAlgorithm.LEADER_OVERLAPPED, part
    )
    by_name = {
        s.name: s.bytes_moved_per_node
        for s in explain_allgather(comm, AllgatherAlgorithm.LEADER, part)
    }
    assert overlapped.bytes_moved_per_node == sum(by_name.values())


@pytest.mark.parametrize("ppn, part, why", [
    (1, 4 * MB, "one rank per node"),
    (8, 0.0, "the payload is empty"),
], ids=["ppn1", "zero-payload"])
def test_leader_idle_steps_say_why_nothing_moves(ppn, part, why):
    """``LEADER`` keeps both on-node steps; where they move nothing no
    memory is shared, there is simply no child copy to make.  The steps
    that sharing removes keep their "eliminated" text."""
    cluster = paper_cluster(nodes=4)
    policy = (
        BindingPolicy.INTERLEAVE if ppn == 1 else BindingPolicy.BIND_TO_SOCKET
    )
    comm = SimComm(cluster, ProcessMapping(cluster, ppn=ppn, policy=policy))
    leader = explain_allgather(comm, AllgatherAlgorithm.LEADER, part)
    steps = {s.name: s for s in leader}
    gather, bcast = steps["step 1 gather"], steps["step 3 bcast"]
    assert gather.channel == bcast.channel == "none"
    assert gather.description == (
        f"idle: {why}, so no child copies a part to the leader"
    )
    assert bcast.description == (
        f"idle: {why}, so the leader copies the result to no child"
    )
    shared = {
        s.name: s.description
        for s in explain_allgather(comm, AllgatherAlgorithm.SHARED_IN, part)
    }
    assert shared["step 1 gather"] == gather.description
    assert shared["step 3 bcast"].startswith("eliminated: ")
    assert all(
        s.description.startswith("eliminated: ")
        for s in explain_allgather(comm, AllgatherAlgorithm.SHARED_ALL, part)
        if s.channel == "none"
    )
