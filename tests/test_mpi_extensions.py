"""Tests for the collective extensions: multi-leader allgather, the
configurable parallel subgroup count, and cross-algorithm equivalence
properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.machine import paper_cluster
from repro.machine.spec import MB
from repro.mpi import (
    AllgatherAlgorithm,
    NodeSharedBuffer,
    ProcessMapping,
    SimComm,
    allgather,
    allgather_time,
)


def make_comm(nodes=4, ppn=8):
    from repro.mpi import BindingPolicy

    cluster = paper_cluster(nodes=nodes)
    policy = (
        BindingPolicy.INTERLEAVE
        if ppn < cluster.node.sockets
        else BindingPolicy.BIND_TO_SOCKET
    )
    return SimComm(cluster, ProcessMapping(cluster, ppn=ppn, policy=policy))


def shared_bufs(comm, total_words):
    return [NodeSharedBuffer(n, total_words) for n in range(comm.cluster.nodes)]


class TestMultiLeader:
    def test_functional_equivalence(self):
        comm = make_comm()
        rng = np.random.default_rng(5)
        parts = [
            rng.integers(0, 2**63, size=32).astype(np.uint64)
            for _ in range(comm.num_ranks)
        ]
        expected = np.concatenate(parts)
        res = allgather(
            comm,
            parts,
            AllgatherAlgorithm.MULTI_LEADER,
            shared_bufs(comm, expected.size),
        )
        for buf in res.data:
            assert np.array_equal(buf.data, expected)

    def test_moves_ppn_times_the_data(self):
        """The paper's III.B critique: each leader still receives the
        full payload, so multi-leader costs ~ppn x the parallel scheme's
        inter-node step."""
        comm = make_comm(nodes=8, ppn=8)
        part = 64 * MB / comm.num_ranks
        t_multi, _ = allgather_time(
            comm, AllgatherAlgorithm.MULTI_LEADER, part
        )
        t_par, _ = allgather_time(
            comm, AllgatherAlgorithm.PARALLEL_SHARED, part
        )
        assert 4 < t_multi / t_par < 12

    def test_single_node_free(self):
        comm = make_comm(nodes=1, ppn=8)
        t, _ = allgather_time(comm, AllgatherAlgorithm.MULTI_LEADER, 1024.0)
        assert t == 0.0


def _subgroup_inter(comm, part, subgroups):
    """Inter-node time of the Fig. 7 scheme with ``subgroups`` rings."""
    _, steps = allgather_time(
        comm, AllgatherAlgorithm.PARALLEL_SHARED, part, subgroups=subgroups
    )
    return steps["inter"]


class TestParallelSubgroups:
    def test_monotone_in_subgroups(self):
        comm = make_comm(nodes=8, ppn=8)
        part = 64 * MB / comm.num_ranks
        times = [_subgroup_inter(comm, part, s) for s in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)
        assert times[0] > times[-1]

    def test_one_subgroup_equals_single_leader_step(self):
        comm = make_comm(nodes=8, ppn=8)
        part = 64 * MB / comm.num_ranks
        t1 = _subgroup_inter(comm, part, 1)
        t_leader, steps = allgather_time(
            comm, AllgatherAlgorithm.SHARED_ALL, part
        )
        assert t1 == pytest.approx(steps["inter"])

    def test_full_subgroups_match_parallel_shared(self):
        comm = make_comm(nodes=8, ppn=8)
        part = 64 * MB / comm.num_ranks
        t8 = _subgroup_inter(comm, part, 8)
        t_par, steps = allgather_time(
            comm, AllgatherAlgorithm.PARALLEL_SHARED, part
        )
        assert t8 == steps["inter"]

    def test_validation(self):
        """Checked on every cluster shape, one node included."""
        for nodes in (1, 2):
            comm = make_comm(nodes=nodes, ppn=8)
            for bad in (0, 9, 99):
                with pytest.raises(CommunicationError, match="subgroups"):
                    allgather_time(
                        comm, AllgatherAlgorithm.PARALLEL_SHARED, 1024.0,
                        subgroups=bad,
                    )

    def test_zero_bytes_free(self):
        comm = make_comm(nodes=2, ppn=8)
        assert _subgroup_inter(comm, 0.0, 4) == 0.0


ALL_ALGORITHMS = list(AllgatherAlgorithm)


@settings(max_examples=25, deadline=None)
@given(
    words=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    nodes=st.sampled_from([1, 2, 4]),
    ppn=st.sampled_from([1, 2, 8]),
)
def test_property_all_algorithms_gather_identically(words, seed, nodes, ppn):
    """Data equivalence across the entire algorithm family, including
    unequal part sizes."""
    comm = make_comm(nodes=nodes, ppn=ppn)
    rng = np.random.default_rng(seed)
    parts = [
        rng.integers(0, 2**63, size=words + (r % 2)).astype(np.uint64)
        for r in range(comm.num_ranks)
    ]
    expected = np.concatenate(parts)
    for algo in ALL_ALGORITHMS:
        shared = algo in (
            AllgatherAlgorithm.SHARED_IN,
            AllgatherAlgorithm.SHARED_ALL,
            AllgatherAlgorithm.PARALLEL_SHARED,
            AllgatherAlgorithm.MULTI_LEADER,
        )
        bufs = shared_bufs(comm, expected.size) if shared else None
        res = allgather(comm, parts, algo, bufs)
        if shared:
            for buf in res.data:
                assert np.array_equal(buf.data, expected), algo
        else:
            assert np.array_equal(res.data, expected), algo
        assert np.all(res.rank_times >= 0.0)


@settings(max_examples=25, deadline=None)
@given(
    part_kb=st.floats(min_value=0.1, max_value=10_000),
    nodes=st.sampled_from([2, 4, 8]),
)
def test_property_optimization_chain_never_hurts(part_kb, nodes):
    """For any payload, the paper's optimization chain is monotone:
    leader >= shared_in >= shared_all >= parallel_shared."""
    comm = make_comm(nodes=nodes, ppn=8)
    part = part_kb * 1024
    chain = [
        AllgatherAlgorithm.LEADER,
        AllgatherAlgorithm.SHARED_IN,
        AllgatherAlgorithm.SHARED_ALL,
        AllgatherAlgorithm.PARALLEL_SHARED,
    ]
    times = [allgather_time(comm, a, part)[0] for a in chain]
    for slower, faster in zip(times, times[1:]):
        assert faster <= slower + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    small_kb=st.floats(min_value=1.0, max_value=100.0),
    factor=st.floats(min_value=1.1, max_value=50.0),
    algo=st.sampled_from(ALL_ALGORITHMS),
)
def test_property_allgather_time_monotone_in_payload(small_kb, factor, algo):
    """For every algorithm, more bytes can never be faster."""
    comm = make_comm(nodes=4, ppn=8)
    small = small_kb * 1024
    t_small, _ = allgather_time(comm, algo, small)
    t_big, _ = allgather_time(comm, algo, small * factor)
    assert t_big >= t_small - 1e-9


class TestLeaderOverlapped:
    def test_overlap_helps_but_sharing_wins(self):
        """The paper's Fig. 6 argument quantified: perfect intra/inter
        overlap improves on the plain leader scheme but cannot match
        removing the intra steps via sharing."""
        comm = make_comm(nodes=16, ppn=8)
        part = 512 * MB / comm.num_ranks
        t_leader, _ = allgather_time(comm, AllgatherAlgorithm.LEADER, part)
        t_overlap, _ = allgather_time(
            comm, AllgatherAlgorithm.LEADER_OVERLAPPED, part
        )
        t_shared, _ = allgather_time(comm, AllgatherAlgorithm.SHARED_IN, part)
        assert t_overlap < t_leader
        assert t_shared < t_overlap

    def test_overlap_bounded_below_by_slowest_side(self):
        comm = make_comm(nodes=8, ppn=8)
        part = 64 * MB / comm.num_ranks
        _, steps = allgather_time(comm, AllgatherAlgorithm.LEADER, part)
        t_overlap, _ = allgather_time(
            comm, AllgatherAlgorithm.LEADER_OVERLAPPED, part
        )
        intra = steps["intra_gather"] + steps["intra_bcast"]
        assert t_overlap == pytest.approx(max(intra, steps["inter"]))

    def test_functional_equivalence(self):
        comm = make_comm(nodes=2, ppn=2)
        rng = np.random.default_rng(9)
        parts = [
            rng.integers(0, 2**63, size=16).astype(np.uint64)
            for _ in range(comm.num_ranks)
        ]
        res = allgather(comm, parts, AllgatherAlgorithm.LEADER_OVERLAPPED)
        assert np.array_equal(res.data, np.concatenate(parts))
