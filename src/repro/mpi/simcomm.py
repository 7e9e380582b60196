"""The simulated communicator.

``SimComm`` owns the channel timing primitives (shared-memory copies
inside a node, InfiniBand transfers between nodes) and what the BFS
engine needs besides allgather: ``alltoallv`` for the top-down queue
exchange and the latency of the small ``allreduce`` that carries the
frontier counts and the termination check (counted per level, priced
by ``allreduce_time``).  The allgather family lives in
:mod:`repro.mpi.collectives`.

Ranks execute bulk-synchronously in one Python process, so a collective
receives every rank's contribution at once and returns the received
data together with the simulated per-rank durations.  ``alltoallv`` is
the exception on the data side: it is given the byte matrix only (see
its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CommunicationError
from repro.machine.costmodel import CodecCostModel
from repro.machine.memory import MemoryModel
from repro.machine.network import NetworkModel
from repro.machine.spec import ClusterSpec
from repro.mpi.mapping import ProcessMapping
from repro.obs.tracer import NULL_TRACER

__all__ = ["SimComm", "CollectiveResult"]


@dataclass
class CollectiveResult:
    """Outcome of one simulated collective.

    ``raw_bytes`` is the pre-codec logical payload (the sum of every
    rank's contribution); ``wire_bytes`` is that payload as transmitted —
    after the frontier codec shrank it and, for alltoallv, minus free
    self-messages.  The message schedule may carry *multiples* of
    ``wire_bytes`` (e.g. the leader broadcast re-moves the gathered data
    on every node); the per-channel split of that carried volume lives in
    the comm event's ``intra_bytes``/``inter_bytes`` attributes.
    """

    data: object
    rank_times: np.ndarray  # ns per rank
    breakdown: dict[str, float] = field(default_factory=dict)
    raw_bytes: float = 0.0
    wire_bytes: float = 0.0
    wire_part_bytes: float = 0.0
    codec: str | None = None

    @property
    def max_time(self) -> float:
        """Slowest rank's time (the collective's completion)."""
        return float(self.rank_times.max()) if self.rank_times.size else 0.0


class SimComm:
    """Communicator over the ranks of a :class:`ProcessMapping`."""

    def __init__(
        self,
        cluster: ClusterSpec,
        mapping: ProcessMapping,
        tracer=None,
    ) -> None:
        if mapping.cluster is not cluster and mapping.cluster != cluster:
            raise CommunicationError("mapping belongs to a different cluster")
        self.cluster = cluster
        self.mapping = mapping
        self.network = NetworkModel(cluster)
        self.memory = MemoryModel(cluster.node)
        # Encode/decode throughputs charged when a frontier codec is
        # active (repro.mpi.codecs); the allgather path and the pricer
        # both read this so functional events and assembled timings agree.
        self.codec_model = CodecCostModel()
        self.num_ranks = mapping.num_ranks
        # Telemetry sink: each collective call emits one CommEvent with its
        # per-rank simulated durations; the default null tracer makes
        # that a no-op guarded by a single attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Fault injector (repro.faults): consulted by every collective
        # before delivering data and by the channel models for link
        # degradation.  None (the default) keeps the hot path unchanged —
        # each hook is a single attribute check.
        self.injector = None
        # repro.core.timing's pricers, memoised per pricing context.
        self.pricers: dict = {}

    # ---- channel primitives ------------------------------------------------

    def shm_copy_time(self, nbytes: float, concurrent_flows: int = 1) -> float:
        """Time (ns) for one rank to copy ``nbytes`` within its node while
        ``concurrent_flows`` copies contend for the memory system."""
        if nbytes < 0:
            raise CommunicationError("negative byte count")
        if nbytes == 0:
            return 0.0
        bw = self.memory.copy_bandwidth(concurrent_flows)
        return self.cluster.node.shm_latency_ns + nbytes / bw * 1e9

    def inter_node_time(
        self, nbytes: float, flows: int = 1, node_index: int | None = None
    ) -> float:
        """Time (ns) to move ``nbytes`` out of ``node_index`` while
        ``flows`` streams share its NICs."""
        if nbytes < 0:
            raise CommunicationError("negative byte count")
        if nbytes == 0:
            return 0.0
        return self.network.transfer_time(nbytes, flows=flows, node_index=node_index)

    def _rank_topology(self) -> tuple[np.ndarray, ...]:
        """Memoized per-rank topology arrays for the pricing hot path:
        owning node per rank, the rank×rank same-node mask, each rank's
        *static* network derating (the injector's dynamic link derating
        is applied by the caller — it can change run to run), and the
        alltoallv pair classes: off-diagonal same-node pairs (shared
        memory) and cross-node pairs (InfiniBand)."""
        cached = getattr(self, "_rank_topo", None)
        if cached is None:
            nodes = np.array(
                [self.mapping.node_of(r) for r in range(self.num_ranks)],
                dtype=np.int64,
            )
            same = nodes[:, None] == nodes[None, :]
            base = np.array(
                [self.cluster.network_derating(int(n)) for n in nodes],
                dtype=np.float64,
            )
            intra = same & ~np.eye(self.num_ranks, dtype=bool)
            cached = (nodes, same, base, intra, ~same)
            self._rank_topo = cached
        return cached

    def _static_derating(self) -> tuple[list[float], float]:
        """Memoized cluster derating per node and its minimum; the
        injector's link derating is applied by the caller."""
        cached = getattr(self, "_node_derate", None)
        if cached is None:
            per_node = [
                self.cluster.network_derating(n)
                for n in range(self.cluster.nodes)
            ]
            cached = (per_node, min(per_node, default=1.0))
            self._node_derate = cached
        return cached

    def node_derating(self, node_index: int) -> float:
        """Combined network derating of one node: the cluster's own weak
        link times any injected degradation."""
        factor = self.cluster.network_derating(node_index)
        if self.injector is not None:
            factor *= self.injector.link_derating(node_index)
        return factor

    def slowest_node_inter_time(self, nbytes: float, flows: int = 1) -> float:
        """Inter-node step time bounded by the slowest (possibly derated)
        node — a bulk step completes when its worst channel does."""
        if nbytes <= 0:
            return 0.0
        per_node, worst = self._static_derating()
        injector = self.injector
        if injector is not None and injector.has_link_faults:
            worst = min(
                (
                    f * injector.link_derating(n)
                    for n, f in enumerate(per_node)
                ),
                default=1.0,
            )
        bw = self.network.flow_bandwidth(flows) * worst
        return self.cluster.node.ib.message_latency_ns + nbytes / bw * 1e9

    # ---- small collectives ---------------------------------------------------

    def allreduce_time(self) -> float:
        """Latency of a small-payload allreduce: log2(np) rounds, each at
        the latency of the slowest channel class in use."""
        rounds = max(1, math.ceil(math.log2(max(2, self.num_ranks))))
        if self.cluster.nodes > 1:
            per_round = self.cluster.node.ib.message_latency_ns
        else:
            per_round = self.cluster.node.shm_latency_ns
        return rounds * per_round

    # ---- alltoallv ------------------------------------------------------------

    def alltoallv_time(self, send_bytes: np.ndarray) -> np.ndarray:
        """Per-rank time of an alltoallv given its byte matrix.

        ``send_bytes[..., i, j]`` is the payload rank ``i`` sends to rank
        ``j``; self-messages are free (local pointer hand-off).  A rank's
        time is the maximum of its send side and its receive side.  A
        stack of matrices, shape ``(..., R, R)``, prices every one in one
        pass and returns ``(..., R)`` — each row bit-identical to pricing
        its matrix alone.
        """
        np_ranks = self.num_ranks
        send_bytes = np.asarray(send_bytes, dtype=np.float64)
        if send_bytes.shape[-2:] != (np_ranks, np_ranks):
            raise CommunicationError(
                f"alltoallv expects a {np_ranks}x{np_ranks} byte matrix",
                collective="alltoallv",
            )
        ppn = self.mapping.ppn
        ib_lat = self.cluster.node.ib.message_latency_ns
        shm_lat = self.cluster.node.shm_latency_ns
        inter_bw = self.network.flow_bandwidth(max(1, ppn))
        intra_bw = self.memory.copy_bandwidth(max(1, ppn))

        nodes, _, derate, intra, inter = self._rank_topology()
        if self.injector is not None:
            derate = derate * np.array(
                [self.injector.link_derating(int(n)) for n in nodes]
            )
        nonzero = send_bytes > 0
        intra_mask = nonzero & intra
        inter_mask = nonzero & inter
        intra_bytes = send_bytes * intra_mask
        inter_bytes = send_bytes * inter_mask
        send_t = (
            intra_mask.sum(axis=-1) * shm_lat
            + intra_bytes.sum(axis=-1) / intra_bw * 1e9
            + inter_mask.sum(axis=-1) * ib_lat
            + inter_bytes.sum(axis=-1) / (inter_bw * derate) * 1e9
        )
        recv_t = (
            (intra_mask | inter_mask).sum(axis=-2) * min(ib_lat, shm_lat)
            + intra_bytes.sum(axis=-2) / intra_bw * 1e9
            + inter_bytes.sum(axis=-2) / inter_bw * 1e9
        )
        return np.maximum(send_t, recv_t)

    def alltoallv(self, send_bytes: np.ndarray) -> CollectiveResult:
        """One alltoallv, given as its rank-to-rank byte matrix.

        ``send_bytes[i, j]`` is the payload rank ``i`` ships to rank
        ``j``.  The top-down step keeps the (child, parent) pairs in one
        rank-global array — simulated ranks share an address space, and
        no fault model inspects this payload — so the collective prices
        the transfer, gives the fault injector its attempt, and emits
        the comm event; ``data`` is None.
        """
        send_bytes = np.asarray(send_bytes, dtype=np.float64)
        times = self.alltoallv_time(send_bytes)
        worst = float(times.max(initial=0.0))
        if self.injector is not None:
            # A scheduled transient failure wastes the whole attempt:
            # the raise carries the priced duration so the engine can
            # charge the retransmission before retrying.
            self.injector.collective_attempt("alltoallv", wasted_ns=worst)
        total = float(send_bytes.sum())
        # Self-messages are pointer hand-offs and never hit a wire.
        self_bytes = float(np.trace(send_bytes))
        result = CollectiveResult(
            data=None,
            rank_times=times,
            breakdown={"alltoallv": worst},
            raw_bytes=total,
            wire_bytes=total - self_bytes,
        )
        if self.tracer.enabled:
            same_node = self._rank_topology()[1]
            intra = float(send_bytes[same_node].sum()) - self_bytes
            self.tracer.comm_event(
                "alltoallv",
                nbytes=total,
                rank_times=times,
                breakdown=result.breakdown,
                raw_bytes=total,
                wire_bytes=result.wire_bytes,
                self_bytes=self_bytes,
                intra_bytes=intra,
                inter_bytes=result.wire_bytes - intra,
            )
        return result
