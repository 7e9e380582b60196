"""Tests for the simulated communicator and the allgather family.

Correctness: every algorithm must produce the same gathered data.
Timing: the qualitative orderings the paper relies on must hold
(intra-node leader steps dominate, sharing removes steps, parallel
subgroups beat a single leader flow).
"""

import numpy as np
import pytest

from repro.errors import CommunicationError
from repro.machine import paper_cluster
from repro.machine.spec import MB
from repro.mpi import (
    AllgatherAlgorithm,
    BindingPolicy,
    NodeSharedBuffer,
    ProcessMapping,
    SimComm,
    allgather,
)


def make_comm(nodes=4, ppn=8, policy=BindingPolicy.BIND_TO_SOCKET):
    cluster = paper_cluster(nodes=nodes)
    if ppn == 1 and policy is BindingPolicy.BIND_TO_SOCKET:
        policy = BindingPolicy.INTERLEAVE
    mapping = ProcessMapping(cluster, ppn=ppn, policy=policy)
    return SimComm(cluster, mapping)


def make_parts(comm, words_per_rank=64, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2**63, size=words_per_rank).astype(np.uint64)
        for _ in range(comm.num_ranks)
    ]


def shared_bufs(comm, total_words):
    return [
        NodeSharedBuffer(n, total_words) for n in range(comm.cluster.nodes)
    ]


PRIVATE_ALGOS = [
    AllgatherAlgorithm.RING,
    AllgatherAlgorithm.RECURSIVE_DOUBLING,
    AllgatherAlgorithm.DEFAULT,
    AllgatherAlgorithm.LEADER,
]
SHARED_ALGOS = [
    AllgatherAlgorithm.SHARED_IN,
    AllgatherAlgorithm.SHARED_ALL,
    AllgatherAlgorithm.PARALLEL_SHARED,
]


class TestAllgatherCorrectness:
    @pytest.mark.parametrize("algo", PRIVATE_ALGOS)
    def test_private_algorithms_gather_identically(self, algo):
        comm = make_comm()
        parts = make_parts(comm)
        expected = np.concatenate(parts)
        res = allgather(comm, parts, algo)
        assert np.array_equal(res.data, expected)
        assert not res.data.flags.writeable

    @pytest.mark.parametrize("algo", SHARED_ALGOS)
    def test_shared_algorithms_fill_every_node(self, algo):
        comm = make_comm()
        parts = make_parts(comm)
        expected = np.concatenate(parts)
        bufs = shared_bufs(comm, expected.size)
        res = allgather(comm, parts, algo, shared_buffers=bufs)
        assert res.data is bufs
        for buf in bufs:
            assert np.array_equal(buf.data, expected)

    def test_unequal_parts(self):
        comm = make_comm(nodes=2, ppn=8)
        parts = [
            np.full(8 + (r % 3), r, dtype=np.uint64)
            for r in range(comm.num_ranks)
        ]
        res = allgather(comm, parts, AllgatherAlgorithm.RING)
        assert np.array_equal(res.data, np.concatenate(parts))

    def test_single_rank(self):
        comm = make_comm(nodes=1, ppn=1, policy=BindingPolicy.INTERLEAVE)
        parts = [np.arange(16, dtype=np.uint64)]
        res = allgather(comm, parts, AllgatherAlgorithm.RING)
        assert np.array_equal(res.data, parts[0])
        assert res.max_time == 0.0

    def test_wrong_part_count_rejected(self):
        comm = make_comm()
        with pytest.raises(CommunicationError):
            allgather(comm, [np.zeros(1, np.uint64)], AllgatherAlgorithm.RING)

    def test_shared_requires_buffers(self):
        comm = make_comm()
        with pytest.raises(CommunicationError):
            allgather(comm, make_parts(comm), AllgatherAlgorithm.SHARED_IN)

    def test_shared_buffer_size_checked(self):
        comm = make_comm()
        parts = make_parts(comm)
        bufs = shared_bufs(comm, 3)
        with pytest.raises(CommunicationError):
            allgather(comm, parts, AllgatherAlgorithm.SHARED_ALL, bufs)


class TestAllgatherTiming:
    def test_leader_intra_dominates_for_large_payload(self):
        """Fig. 6: at 16 nodes x 8 ppn with 512 MB, steps 1+3 (intra)
        exceed step 2 (inter)."""
        comm = make_comm(nodes=16, ppn=8)
        words = 512 * MB // 8 // comm.num_ranks
        parts = [np.zeros(words, np.uint64) for _ in range(comm.num_ranks)]
        res = allgather(comm, parts, AllgatherAlgorithm.LEADER)
        intra = res.breakdown["intra_gather"] + res.breakdown["intra_bcast"]
        inter = res.breakdown["inter"]
        assert intra > inter

    def test_sharing_removes_steps(self):
        comm = make_comm(nodes=8, ppn=8)
        words = 64 * MB // 8 // comm.num_ranks
        parts = [np.zeros(words, np.uint64) for _ in range(comm.num_ranks)]
        total = words * comm.num_ranks

        leader = allgather(comm, parts, AllgatherAlgorithm.LEADER)
        sin = allgather(
            comm, parts, AllgatherAlgorithm.SHARED_IN, shared_bufs(comm, total)
        )
        sall = allgather(
            comm, parts, AllgatherAlgorithm.SHARED_ALL, shared_bufs(comm, total)
        )
        par = allgather(
            comm,
            parts,
            AllgatherAlgorithm.PARALLEL_SHARED,
            shared_bufs(comm, total),
        )
        assert sin.breakdown["intra_bcast"] == 0.0
        assert sall.breakdown["intra_gather"] == 0.0
        # Each optimization strictly reduces total time (Fig. 13 ordering).
        assert leader.max_time > sin.max_time > sall.max_time > par.max_time

    def test_parallel_subgroups_accelerate_inter_step(self):
        """Fig. 7 / Fig. 4: eight concurrent flows saturate both IB ports
        where one leader flow reaches only ~half of peak."""
        comm = make_comm(nodes=8, ppn=8)
        words = 64 * MB // 8 // comm.num_ranks
        parts = [np.zeros(words, np.uint64) for _ in range(comm.num_ranks)]
        total = words * comm.num_ranks
        seq = allgather(
            comm, parts, AllgatherAlgorithm.SHARED_ALL, shared_bufs(comm, total)
        )
        par = allgather(
            comm,
            parts,
            AllgatherAlgorithm.PARALLEL_SHARED,
            shared_bufs(comm, total),
        )
        ratio = seq.breakdown["inter"] / par.breakdown["inter"]
        assert 1.5 < ratio < 2.5

    def test_default_picks_by_size(self):
        comm = make_comm(nodes=2, ppn=8)
        small = [np.zeros(4, np.uint64) for _ in range(comm.num_ranks)]
        big = [np.zeros(64 * 1024, np.uint64) for _ in range(comm.num_ranks)]
        res_small = allgather(comm, small, AllgatherAlgorithm.DEFAULT)
        res_big = allgather(comm, big, AllgatherAlgorithm.DEFAULT)
        assert "recursive_doubling" in res_small.breakdown
        assert "ring" in res_big.breakdown

    def test_more_processes_cost_more_ring_time(self):
        """Eq. 1: total transmitted data grows with np; ppn=8 ring is far
        more expensive than ppn=1 for the same total payload."""
        total_words = 4 * MB // 8
        t = {}
        for ppn in (1, 8):
            comm = make_comm(nodes=8, ppn=ppn)
            words = total_words // comm.num_ranks
            parts = [np.zeros(words, np.uint64) for _ in range(comm.num_ranks)]
            t[ppn] = allgather(comm, parts, AllgatherAlgorithm.RING).max_time
        assert t[8] > 1.5 * t[1]

    def test_weak_node_slows_inter_step(self):
        words = 1 * MB // 8
        comm_ok = make_comm(nodes=8, ppn=8)
        cluster_weak = paper_cluster(nodes=8, weak_node=True)
        mapping = ProcessMapping(cluster_weak, ppn=8)
        comm_weak = SimComm(cluster_weak, mapping)
        parts = lambda c: [  # noqa: E731
            np.zeros(words, np.uint64) for _ in range(c.num_ranks)
        ]
        t_ok = allgather(comm_ok, parts(comm_ok), AllgatherAlgorithm.LEADER)
        t_weak = allgather(comm_weak, parts(comm_weak), AllgatherAlgorithm.LEADER)
        assert t_weak.breakdown["inter"] > t_ok.breakdown["inter"]

    def test_zero_bytes_costs_nothing(self):
        comm = make_comm(nodes=2, ppn=8)
        parts = [np.zeros(0, np.uint64) for _ in range(comm.num_ranks)]
        res = allgather(comm, parts, AllgatherAlgorithm.RING)
        assert res.max_time == 0.0


class TestSimCommPrimitives:
    def test_alltoallv_prices_byte_matrix(self):
        comm = make_comm(nodes=2, ppn=2)
        n = comm.num_ranks
        send_bytes = np.arange(n * n, dtype=np.int64).reshape(n, n) * 16
        res = comm.alltoallv(send_bytes)
        assert res.data is None  # the payload never moves through here
        assert np.array_equal(res.rank_times, comm.alltoallv_time(send_bytes))
        assert res.breakdown == {"alltoallv": res.max_time}
        assert res.raw_bytes == send_bytes.sum()
        # Self-messages are pointer hand-offs, not wire traffic.
        assert res.wire_bytes == send_bytes.sum() - np.trace(send_bytes)

    @pytest.mark.parametrize("nodes, ppn", [(1, 8), (4, 8), (16, 1)])
    def test_alltoallv_time_stack_matches_each_matrix(self, nodes, ppn):
        """A ``(levels, R, R)`` stack prices every matrix bit-identically
        to pricing it alone (what the one-call-per-run pricing relies on);
        a stack of none prices to an empty ``(0, R)``."""
        comm = make_comm(nodes=nodes, ppn=ppn)
        n = comm.num_ranks
        rng = np.random.default_rng(nodes * ppn)
        stack = rng.integers(0, 5000, (5, n, n)) * (rng.random((5, n, n)) < 0.4)
        times = comm.alltoallv_time(stack)
        assert times.shape == (5, n)
        for matrix, row in zip(stack, times):
            assert np.array_equal(comm.alltoallv_time(matrix), row)
        assert comm.alltoallv_time(np.zeros((0, n, n))).shape == (0, n)

    def test_alltoallv_empty_messages_free(self):
        comm = make_comm(nodes=2, ppn=2)
        n = comm.num_ranks
        res = comm.alltoallv(np.zeros((n, n), dtype=np.int64))
        assert res.max_time == 0.0

    def test_alltoallv_shape_checked(self):
        comm = make_comm(nodes=2, ppn=2)
        with pytest.raises(CommunicationError):
            comm.alltoallv(np.zeros((1, 1), dtype=np.int64))

    def test_inter_faster_than_intra_for_small_latency(self):
        """Sanity: shm copies have lower latency but lower per-flow
        bandwidth than IB under heavy contention."""
        comm = make_comm(nodes=2, ppn=8)
        assert comm.shm_copy_time(0) == 0.0
        assert comm.inter_node_time(0) == 0.0
        big = 64 * MB
        assert comm.shm_copy_time(big, 7) > comm.inter_node_time(big, 1)
