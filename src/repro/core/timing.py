"""Assembly of simulated time from event counts.

``assemble`` converts a :class:`~repro.core.counts.RunCounts` into the
per-phase time breakdown the paper profiles (Fig. 11): top-down
computation, top-down communication, bottom-up computation, bottom-up
communication, switch (frontier representation conversion) and stall
(load imbalance at the level barriers).

Timing is a pure function of the counts, the machine model and the
configuration, so the same run can be priced at its actual scale (the
engine does this) or at a paper scale after
:meth:`~repro.core.counts.RunCounts.scaled` (the :mod:`repro.model`
extrapolation does that), with structure sizes — and therefore cache hit
rates — evaluated at the target scale.

Compute phases use the roofline combination of
:mod:`repro.machine.costmodel`: ``max(latency term, bandwidth term,
cpu term)``, vectorized over ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitmap import summary_words_for
from repro.core.config import BFSConfig
from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.errors import SimulationError
from repro.machine.memory import MemoryModel, Placement, StructureAccess
from repro.mpi.collectives import allgather_time
from repro.mpi.simcomm import SimComm
from repro.util import bitops

__all__ = [
    "COMM_COMPONENTS",
    "CostConstants",
    "StructureSizes",
    "LevelTiming",
    "PhaseBreakdown",
    "BfsTiming",
    "assemble",
    "comm_component_split",
    "mean_bu_comm_ns",
]

#: Attribution categories for communication time: the two bottom-up
#: allgathers the paper profiles separately (Fig. 12/14), the top-down
#: pair exchange, and the per-level control allreduces.
COMM_COMPONENTS = (
    "allgather_in_queue",
    "allgather_summary",
    "alltoallv",
    "allreduce",
)


def comm_component_split(comm_steps: dict[str, float]) -> dict[str, float]:
    """Group a level's ``comm_steps`` into :data:`COMM_COMPONENTS`.

    The pricer prefixes every in_queue-allgather step with ``inq_`` and
    every summary-allgather step with ``summary_`` (including the codec
    encode/decode terms), so the per-collective attribution is a pure
    regrouping — the component sums always add up to ``comm_ns``.
    Unrecognized steps are preserved under ``other``.
    """
    out = dict.fromkeys(COMM_COMPONENTS, 0.0)
    for step, t in comm_steps.items():
        if step.startswith("inq_"):
            out["allgather_in_queue"] += t
        elif step.startswith("summary_"):
            out["allgather_summary"] += t
        elif step in ("alltoallv", "allreduce"):
            out[step] += t
        else:
            out["other"] = out.get("other", 0.0) + t
    return out

# Scalar-work constants (CPU cycles per event).  These are the knobs a
# profile-calibrated simulator exposes; defaults chosen for a tight BFS
# inner loop on the 2 GHz X7550.
@dataclass(frozen=True)
class CostConstants:
    cycles_per_td_edge: float = 8.0
    cycles_per_td_frontier_vertex: float = 12.0
    cycles_per_td_received_pair: float = 10.0
    cycles_per_bu_edge: float = 6.0
    cycles_per_bu_candidate: float = 4.0
    cycles_per_switch_vertex: float = 6.0
    bytes_per_adjacency_entry: float = 8.0
    # Compute-phase inflation under OpenMP *static* chunking: power-law
    # per-vertex work leaves some threads idle while the hub chunks
    # finish (the paper uses the dynamic scheduler to avoid this, IV.C).
    omp_static_penalty: float = 1.4


@dataclass(frozen=True)
class StructureSizes:
    """Structure sizes at the *priced* scale."""

    num_vertices: int
    num_arcs: int  # directed arcs (2x undirected edges)
    num_ranks: int
    granularity: int

    @property
    def in_queue_bytes(self) -> float:
        """Bytes of the full frontier bitmap."""
        return bitops.words_for_bits(self.num_vertices) * 8.0

    @property
    def summary_bytes(self) -> float:
        """Bytes of the summary bitmap at this granularity."""
        return summary_words_for(self.num_vertices, self.granularity) * 8.0

    @property
    def local_vertices(self) -> float:
        """Vertices per rank."""
        return self.num_vertices / self.num_ranks

    @property
    def out_part_bytes(self) -> float:
        """Bytes of one rank's out_queue bitmap part."""
        return self.local_vertices / 8.0

    @property
    def parent_bytes(self) -> float:
        """Bytes of one rank's parent array."""
        return self.local_vertices * 8.0

    @property
    def local_graph_bytes(self) -> float:
        """Bytes of one rank's CSR partition."""
        return self.num_arcs / self.num_ranks * 8.0 + self.local_vertices * 8.0


@dataclass
class LevelTiming:
    level: int
    direction: str
    compute_mean_ns: float
    compute_max_ns: float
    comm_ns: float
    switch_ns: float
    stall_ns: float
    # Telemetry detail (consumed by repro.obs.export): the per-rank
    # compute durations behind mean/max, and the collective's per-step
    # time split (e.g. inq_intra_gather / inq_inter for the leader
    # allgather family).
    compute_rank_ns: np.ndarray
    comm_steps: dict[str, float] = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        """Level total: compute + comm + switch + stall."""
        return self.compute_mean_ns + self.comm_ns + self.switch_ns + self.stall_ns

    @property
    def critical_rank(self) -> int:
        """The straggler: rank with the largest compute time this level
        (the one every other rank waits for at the barrier)."""
        return int(np.argmax(self.compute_rank_ns))

    @property
    def compute_imbalance(self) -> float:
        """Load-imbalance ratio max/mean of the per-rank compute times
        (1.0 = perfectly balanced)."""
        arr = self.compute_rank_ns
        mean = float(np.mean(arr))
        return float(np.max(arr)) / mean if mean > 0 else 1.0

    def comm_components(self) -> dict[str, float]:
        """This level's communication time per attribution component
        (see :func:`comm_component_split`)."""
        return comm_component_split(self.comm_steps)


@dataclass
class PhaseBreakdown:
    """Fig. 11 categories, in nanoseconds of the critical path."""

    td_compute: float = 0.0
    td_comm: float = 0.0
    bu_compute: float = 0.0
    bu_comm: float = 0.0
    switch: float = 0.0
    stall: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all six phases."""
        return (
            self.td_compute
            + self.td_comm
            + self.bu_compute
            + self.bu_comm
            + self.switch
            + self.stall
        )

    @property
    def comm_fraction(self) -> float:
        """Share of bottom-up communication in the total (the Fig. 12/14
        curve)."""
        return self.bu_comm / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, float]:
        """The six phases as a plain dict (ns)."""
        return {
            "td_compute": self.td_compute,
            "td_comm": self.td_comm,
            "bu_compute": self.bu_compute,
            "bu_comm": self.bu_comm,
            "switch": self.switch,
            "stall": self.stall,
        }


@dataclass
class BfsTiming:
    levels: list[LevelTiming] = field(default_factory=list)
    breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)

    @property
    def total_ns(self) -> float:
        """Total simulated nanoseconds."""
        return self.breakdown.total

    @property
    def total_seconds(self) -> float:
        """Total simulated seconds."""
        return self.total_ns / 1e9


def mean_bu_comm_ns(timings: list[BfsTiming]) -> float:
    """Average time of each bottom-up communication phase over every
    level of ``timings`` (the Fig. 12 / Fig. 13 bars), in ns."""
    times = [
        lt.comm_ns
        for timing in timings
        for lt in timing.levels
        if lt.direction == "bottom_up"
    ]
    return float(np.mean(times)) if times else 0.0


def _roofline(
    lat_ns: np.ndarray,
    stream_time_ns: np.ndarray,
    cpu_cycles: np.ndarray,
    threads: int,
    mlp: float,
    frequency_hz: float,
) -> np.ndarray:
    """Vectorized roofline combination over ranks."""
    latency_term = lat_ns / (threads * mlp)
    cpu_term = cpu_cycles / (threads * frequency_hz) * 1e9
    return np.maximum(np.maximum(latency_term, stream_time_ns), cpu_term)


class _Pricer:
    """Precomputes per-structure latencies/bandwidths for one
    ``(comm, config, sizes, constants)``; :func:`_pricer` memoises it."""

    def __init__(
        self,
        comm: SimComm,
        config: BFSConfig,
        sizes: StructureSizes,
        constants: CostConstants,
    ) -> None:
        self.comm = comm
        self.config = config
        self.sizes = sizes
        self.c = constants
        self.mapping = comm.mapping
        node = comm.cluster.node
        self.socket = node.socket
        self.memory: MemoryModel = comm.memory

        loc = self.mapping.location(0)  # mapping is symmetric across ranks
        self.threads = loc.threads
        self.threads_sockets = loc.threads_sockets
        self.omp_penalty = (
            1.0 if config.omp_dynamic else constants.omp_static_penalty
        )
        private = loc.private_placement

        self.lat_graph = self._lat("graph", sizes.local_graph_bytes, private)
        self.lat_out_queue = self._lat("out_queue", sizes.in_queue_bytes, private)
        self.lat_parent = self._lat("parent", sizes.parent_bytes, private)
        self.lat_in_queue = self._lat(
            "in_queue", sizes.in_queue_bytes, config.in_queue_placement(private)
        )
        self.lat_summary = self._lat(
            "summary", sizes.summary_bytes, config.summary_placement(private)
        )
        self.graph_stream_bw = self.memory.effective(
            private, self.threads_sockets
        ).stream_bandwidth
        self.line_bytes = self.socket.caches[0].line_bytes if self.socket.caches else 64
        # DRAM-miss fractions for miss-traffic bandwidth accounting.
        cachemod = self.memory.caches
        self.miss_in_queue = cachemod.dram_miss_fraction(
            sizes.in_queue_bytes,
            shared_sockets=self.memory.effective(
                config.in_queue_placement(private), self.threads_sockets
            ).shared_sockets,
        )
        self.miss_summary = cachemod.dram_miss_fraction(
            sizes.summary_bytes,
            shared_sockets=self.memory.effective(
                config.summary_placement(private), self.threads_sockets
            ).shared_sockets,
        )
        self.allreduce_ns = comm.allreduce_time()
        self._raw_levels: dict = {}

    def _lat(self, name: str, size: float, placement: Placement) -> float:
        return self.memory.access_latency(
            StructureAccess(name, size, placement), self.threads_sockets
        )

    # ---- compute pricing, every level of one direction at once ------------
    #
    # Inputs are ``(levels, ranks)`` float64 stacks of the per-rank counts;
    # every operation is elementwise, so each row is bit-identical to
    # pricing its level alone.

    def _adjacency_reads(
        self, vertices: np.ndarray, examined: np.ndarray
    ) -> np.ndarray:
        """Random line accesses into the CSR arrays.

        BFS adjacency access is *not* a long stream: each scanned vertex's
        neighbour list is a short burst at a random position, so it costs
        roughly one miss per vertex plus one per cache line of entries.
        This is the dominant latency-bound term of the computation phase
        and the one the paper's socket binding accelerates.
        """
        entries_per_line = self.line_bytes / self.c.bytes_per_adjacency_entry
        return vertices + examined / entries_per_line

    def top_down_compute(
        self, examined: np.ndarray, frontier: np.ndarray, send: np.ndarray
    ) -> np.ndarray:
        """``send`` is the ``(levels, ranks, ranks)`` alltoallv byte stack."""
        received = send.sum(axis=1) / 16.0  # (child, parent) pairs
        graph_reads = self._adjacency_reads(frontier, examined)
        lat = (
            graph_reads * self.lat_graph
            + examined * self.lat_out_queue
            + received * self.lat_parent
        )
        stream_bytes = graph_reads * self.line_bytes
        stream_t = stream_bytes / self.graph_stream_bw * 1e9
        cpu = (
            examined * self.c.cycles_per_td_edge
            + frontier * self.c.cycles_per_td_frontier_vertex
            + received * self.c.cycles_per_td_received_pair
        )
        return _roofline(
            lat, stream_t, cpu, self.threads, self.socket.mlp,
            self.socket.frequency_hz,
        )

    def bottom_up_compute(
        self,
        examined: np.ndarray,
        candidates: np.ndarray,
        inq_reads: np.ndarray,
    ) -> np.ndarray:
        graph_reads = self._adjacency_reads(candidates, examined)
        # The reference code probes summary and in_queue *simultaneously*
        # (II.B.2): on a zero summary bit the scan proceeds as soon as the
        # (fast, cache-resident) summary answers; otherwise the slower
        # in_queue read governs.  The summary therefore substitutes the
        # in_queue latency on empty blocks rather than adding to it.
        lat = graph_reads * self.lat_graph
        if self.config.use_summary:
            lat = (
                lat
                + (examined - inq_reads) * self.lat_summary
                + inq_reads * max(self.lat_in_queue, self.lat_summary)
            )
        else:
            lat = lat + inq_reads * self.lat_in_queue
        stream_bytes = (
            graph_reads * self.line_bytes
            # scan of the local visited/out_queue part, plus writing the
            # new out_queue part and its summary slice
            + 2.0 * self.sizes.out_part_bytes
            # miss traffic of the random bitmap reads
            + inq_reads * self.miss_in_queue * self.line_bytes
        )
        if self.config.use_summary:
            stream_bytes = stream_bytes + examined * self.miss_summary * self.line_bytes
        stream_t = stream_bytes / self.graph_stream_bw * 1e9
        cpu = (
            examined * self.c.cycles_per_bu_edge
            + candidates * self.c.cycles_per_bu_candidate
        )
        return _roofline(
            lat, stream_t, cpu, self.threads, self.socket.mlp,
            self.socket.frequency_hz,
        )

    def switch_time(self, lc: LevelCounts) -> float:
        """Frontier representation conversion (bitmap <-> queue)."""
        if not lc.switched:
            return 0.0
        vertices = float(lc.frontier_local.max(initial=0))
        stream_t = self.sizes.out_part_bytes / self.graph_stream_bw * 1e9
        cpu_t = (
            vertices
            * self.c.cycles_per_switch_vertex
            / (self.threads * self.socket.frequency_hz)
            * 1e9
        )
        return stream_t + cpu_t

    # ---- communication pricing -------------------------------------------

    def top_down_comm(
        self, send: np.ndarray, allreduces: list[int]
    ) -> list[tuple[float, dict[str, float]]]:
        """Every top-down level's exchange: one alltoallv pricing call
        over the ``(levels, ranks, ranks)`` byte stack."""
        worst = self.comm.alltoallv_time(send).max(axis=1, initial=0.0)
        out = []
        for a2a, n in zip(worst.tolist(), allreduces):
            steps = {"alltoallv": a2a, "allreduce": n * self.allreduce_ns}
            out.append((sum(steps.values()), steps))
        return out

    def _allgather_steps(
        self,
        algorithm,
        raw_part_bytes: float,
        wire_part_bytes: float,
        wire_total_bytes: float,
        encoded: bool,
    ) -> tuple[float, dict[str, float]]:
        """One allgather's step times, with codec terms when encoded.

        The same call :func:`repro.mpi.collectives.allgather` makes: the
        schedule priced at the *wire* sizes the engine recorded, with the
        encode/decode steps of the largest raw part — keeping assembled
        timings identical to the traced events.
        """
        if not encoded:
            return allgather_time(self.comm, algorithm, raw_part_bytes)
        return allgather_time(
            self.comm, algorithm, wire_part_bytes, wire_total_bytes,
            raw_part_bytes=raw_part_bytes,
        )

    def bottom_up_comm(self, lc: LevelCounts) -> tuple[float, dict[str, float]]:
        """A bottom-up level's allgathers and allreduces.  Uncompressed
        levels depend on three counts only, so their price is memoised
        (a run repeats one key every level)."""
        encoded = lc.codec not in (None, "raw")
        key = (lc.inq_part_words, lc.summary_part_words, lc.allreduces)
        if not encoded and key in self._raw_levels:
            total, steps = self._raw_levels[key]
            return total, dict(steps)
        inq_t, inq_steps = self._allgather_steps(
            self.config.in_queue_algorithm(),
            raw_part_bytes=lc.inq_part_words * 8.0,
            wire_part_bytes=lc.inq_wire_part_bytes,
            wire_total_bytes=lc.inq_wire_total_bytes,
            encoded=encoded,
        )
        total = inq_t
        steps = {f"inq_{k}": v for k, v in inq_steps.items()}
        if self.config.use_summary:
            sum_t, sum_steps = self._allgather_steps(
                self.config.summary_algorithm(),
                raw_part_bytes=lc.summary_part_words * 8.0,
                wire_part_bytes=lc.summary_wire_part_bytes,
                wire_total_bytes=lc.summary_wire_total_bytes,
                encoded=encoded,
            )
            total += sum_t
            steps.update({f"summary_{k}": v for k, v in sum_steps.items()})
        steps["allreduce"] = lc.allreduces * self.allreduce_ns
        total += steps["allreduce"]
        if not encoded:
            self._raw_levels[key] = (total, dict(steps))
        return total, steps


def _pricer(
    comm: SimComm,
    config: BFSConfig,
    sizes: StructureSizes,
    constants: CostConstants,
) -> _Pricer:
    """The pricer of one pricing context, memoised on the communicator.
    The injector is part of the key: its link derating enters the
    collective prices."""
    pricers = comm.pricers
    key = (config, sizes, constants, comm.injector)
    pricer = pricers.get(key)
    if pricer is None:
        pricer = pricers[key] = _Pricer(comm, config, sizes, constants)
    return pricer


def assemble(
    counts: RunCounts,
    comm: SimComm,
    config: BFSConfig,
    sizes: StructureSizes,
    constants: CostConstants = CostConstants(),
) -> BfsTiming:
    """Price a run's counts on the machine model.

    Each direction's compute is priced in one pass over ``(levels,
    ranks)`` stacks and every top-down exchange in one alltoallv call;
    the per-level results are then folded into the breakdown in level
    order, so the totals are those of pricing level by level.
    """
    counts.validate()
    if counts.num_ranks != comm.num_ranks:
        raise SimulationError(
            f"counts recorded for {counts.num_ranks} ranks, communicator "
            f"has {comm.num_ranks}"
        )
    pricer = _pricer(comm, config, sizes, constants)
    levels = counts.levels
    shape = (len(levels), counts.num_ranks)
    frontier, examined, candidates, inq_reads = np.array(
        [
            (lc.frontier_local, lc.examined_edges, lc.candidates,
             lc.inqueue_reads)
            for lc in levels
        ],
        np.float64,
    ).reshape(shape[0], 4, shape[1]).transpose(1, 0, 2)
    td = np.array([lc.direction == Direction.TOP_DOWN for lc in levels], bool)
    td_levels = [lc for lc in levels if lc.direction == Direction.TOP_DOWN]
    no_send = np.zeros(shape[1:] * 2, dtype=np.int64)
    send = np.array([
        no_send if lc.td_send_bytes is None else lc.td_send_bytes
        for lc in td_levels
    ]).reshape(-1, *no_send.shape)
    td_comm = iter(
        pricer.top_down_comm(send, [lc.allreduces for lc in td_levels])
    )
    bu = ~td
    comp = np.empty(shape)
    comp[td] = pricer.top_down_compute(examined[td], frontier[td], send)
    comp[bu] = pricer.bottom_up_compute(
        examined[bu], candidates[bu], inq_reads[bu]
    )
    comp *= pricer.omp_penalty

    timing = BfsTiming()
    bd = timing.breakdown
    for lc, row, comp_mean, comp_max in zip(
        levels, comp, comp.mean(axis=1).tolist(), comp.max(axis=1).tolist()
    ):
        if lc.direction == Direction.TOP_DOWN:
            comm_t, comm_steps = next(td_comm)
            bd.td_compute += comp_mean
            bd.td_comm += comm_t
        else:
            comm_t, comm_steps = pricer.bottom_up_comm(lc)
            bd.bu_compute += comp_mean
            bd.bu_comm += comm_t
        switch_t = pricer.switch_time(lc)
        stall = comp_max - comp_mean
        bd.switch += switch_t
        bd.stall += stall
        timing.levels.append(
            LevelTiming(
                level=lc.level,
                direction=lc.direction,
                compute_mean_ns=comp_mean,
                compute_max_ns=comp_max,
                comm_ns=comm_t,
                switch_ns=switch_t,
                stall_ns=stall,
                compute_rank_ns=row,
                comm_steps=comm_steps,
            )
        )
    return timing
