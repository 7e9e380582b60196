"""The distributed hybrid BFS engine (Fig. 1 of the paper).

The engine executes the real algorithm on real data: the graph is 1-D
partitioned over ``nodes x ppn`` simulated MPI ranks, every level is
expanded either top-down (queue exchange over ``alltoallv``) or bottom-up
(scan against the allgathered ``in_queue`` bitmap plus its summary), and
the output is a genuine, validatable BFS parent tree.

Simulated time never influences the functional result; the engine records
per-rank event counts (:mod:`repro.core.counts`) and prices them with
:func:`repro.core.timing.assemble`, so the identical run can also be
priced at a larger target scale (:mod:`repro.model`).

Level structure (matching Fig. 1 and the profiling categories of
Fig. 11):

* direction decision from allreduced frontier statistics;
* *switch*: frontier representation conversion when the direction
  changed (queue <-> bitmap);
* bottom-up levels start by allgathering the out_queue parts into the
  next ``in_queue`` (and its summary — "the two allgathers"); top-down
  levels exchange (child, parent) pairs instead (``_publish_frontier``
  and the rank-global ``_top_down_step``, see :mod:`repro.core.topdown`);
* compute step — one kernel call per level covering every rank
  (:meth:`~repro.core.kernels.KernelBackend.bottom_up_scan_batch` or the
  top-down step); barrier (stall accounting); termination allreduce.

That loop is written once, in ``_run_lanes``, over a set of *lanes*: one
traversal per root, advanced level by level together.  ``run`` is one
lane; the batched :class:`~repro.core.multisource.MultiSourceEngine`
runs up to 64.  The state is global, as the kernels are: per lane a row
of one parent table, a per-rank unexplored-degree vector, and a
rank-major frontier array (all of rank 0's members, then rank 1's, ...).

The loop has no fault-tolerance branches.  Checkpoint, rollback, retry,
checksums and straggler repricing live in one
:class:`~repro.faults.recovery.Recovery` object the engine builds once
from its ``faults=`` and ``resilience=`` arguments; the loop calls it at
fixed points (run start, top of level, each collective, after the
gather, level barrier, run end).  A fault-free engine holds the all-off
instance, :data:`~repro.faults.recovery.ALL_OFF`, whose hooks do
nothing, and so takes the same loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.bitmap import Bitmap, SummaryBitmap, summary_words_for
from repro.core.config import BFSConfig
from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.core.hybrid import DirectionPolicy, FrontierStats
from repro.core.kernels import resolve_backend
from repro.core.kernels.base import PAIR_BYTES
from repro.core.prepared import PreparedGraph
from repro.core.timing import BfsTiming, CostConstants, StructureSizes, assemble
from repro.errors import GraphError
from repro.faults.injector import FaultInjector, RollbackFault
from repro.faults.plan import FaultPlan
from repro.faults.recovery import ALL_OFF, FaultTolerance, ResilienceConfig
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.mpi.codecs import get_codec, resolve_codec
from repro.mpi.collectives import allgather
from repro.mpi.sharedmem import NodeSharedBuffer
from repro.mpi.simcomm import SimComm
from repro.obs.hostprof import NULL_HOSTPROF
from repro.obs.tracer import NULL_TRACER, RunTelemetry
from repro.util import bitops

__all__ = ["BFSEngine", "BFSResult"]


class _NeverCancelled:
    """The cancel token of a traversal nobody can cancel."""

    def check(self, where: str = "") -> None:
        """Never raises."""


NEVER_CANCELLED = _NeverCancelled()


@dataclass
class BFSResult:
    """Everything one BFS run produced."""

    root: int
    parent: np.ndarray  # global parent array, -1 = unreached
    levels: int
    counts: RunCounts
    timing: BfsTiming
    # Filled only when the engine ran with a recording tracer.
    telemetry: RunTelemetry | None = None
    # The run's repro.faults.recovery.RecoveryReport, filled only when
    # the engine ran with fault tolerance enabled.
    recovery: RecoveryReport | None = None

    @property
    def visited(self) -> int:
        """Number of reached vertices (including the root)."""
        return int(np.count_nonzero(self.parent >= 0))

    @property
    def traversed_edges(self) -> int:
        """Undirected input edges in the root's component (TEPS numerator)."""
        return self.counts.traversed_edges

    @property
    def seconds(self) -> float:
        """Simulated wall time of the traversal.

        A recovered run honestly pays for what fault tolerance did:
        retransmissions, backoff, checkpoints, restores and replayed
        levels all land on top of the fault-free pricing (``timing``
        itself stays fault-free-equivalent so recovered runs can be
        compared bit-for-bit against a clean baseline).
        """
        total = self.timing.total_seconds
        if self.recovery is not None:
            total += self.recovery.overhead_seconds
        return total

    @property
    def teps(self) -> float:
        """Traversed edges per (simulated) second, the Graph500 metric."""
        if self.seconds <= 0:
            return 0.0
        return self.traversed_edges / self.seconds


class BFSEngine:
    """Reusable BFS executor for one (graph, cluster, config) triple."""

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        config: BFSConfig,
        constants: CostConstants = CostConstants(),
        tracer=None,
        metrics=None,
        faults: FaultPlan | FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
        hostprof=None,
        prepared: PreparedGraph | None = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.config = config
        self.constants = constants
        # Telemetry is opt-in: the default null tracer makes every hook a
        # no-op and ``metrics=None`` skips all registry updates, so the
        # undecorated hot path is unchanged.  Host profiling follows the
        # same pattern: the null profiler's phase() returns a shared inert
        # context manager.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hostprof = hostprof if hostprof is not None else NULL_HOSTPROF
        self.metrics = metrics
        # Fault tolerance is opt-in the same way: with no plan the
        # injector stays None and no communicator hook fires.  A plan
        # implies a (default) ResilienceConfig; a ResilienceConfig alone
        # enables checkpointing/verification without injecting anything.
        # Either builds the engine's recovery object; neither leaves it
        # the all-off one, whose every hook is a no-op.
        if isinstance(faults, FaultPlan):
            faults = None if faults.empty else FaultInjector(faults)
        self.injector: FaultInjector | None = faults
        if faults is not None and resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.recovery = ALL_OFF if resilience is None else FaultTolerance(
            resilience, faults,
            tracer=self.tracer, metrics=metrics, hostprof=self.hostprof,
        )
        # Kernel backend: config.kernel > $REPRO_KERNEL > registry default.
        # Backends are bit-identical on all priced counts (enforced by the
        # equivalence suite), so this only changes speed and memory.
        self.kernel = resolve_backend(config)
        # Frontier codec: config.comm.codec > $REPRO_CODEC > "raw".
        # Codecs are lossless (round-trip enforced inside allgather), so
        # they change only the simulated wire bytes/time; the identity
        # codec is dropped here so the raw path stays byte-for-byte the
        # uninstrumented one.
        codec = resolve_codec(config)
        self.codec = None if codec.is_identity else codec
        # Partition/CSR build work lives on the immutable PreparedGraph so
        # it can be shared across engines and queries (and cached by the
        # serving layer).  A caller-supplied one is validated against the
        # requested (graph, cluster, config); otherwise we build our own.
        if prepared is None:
            prepared = PreparedGraph.prepare(graph, cluster, config)
        else:
            prepared.check(graph, cluster, config)
        self.prepared = prepared
        self.mapping = prepared.mapping
        self.comm = SimComm(cluster, self.mapping, tracer=self.tracer)
        self.comm.injector = self.injector
        np_ranks = self.mapping.num_ranks
        self.partition = prepared.partition
        self._part_words = prepared.part_words
        # Word offset of each rank's slice in the concatenated bitmap
        # (partition bounds are 64-aligned, so slices tile exactly); used
        # to hand the sieve codec per-rank views of the visited mask.
        self._word_starts = prepared.word_starts
        self.sizes = StructureSizes(
            num_vertices=graph.num_vertices,
            num_arcs=graph.num_directed_edges,
            num_ranks=np_ranks,
            granularity=config.granularity,
        )

    # ---- helpers -------------------------------------------------------------

    def _shared_buffers(self) -> list[NodeSharedBuffer] | None:
        if not self.config.shares_in_queue:
            return None
        total_words = bitops.words_for_bits(self.graph.num_vertices)
        return [
            NodeSharedBuffer(node, total_words)
            for node in range(self.cluster.nodes)
        ]

    def _rank_sizes(self, frontier: np.ndarray) -> np.ndarray:
        """Members per rank of a frontier partitioned by the rank bounds
        (rank-major from the top-down step, ascending from the
        bottom-up scan): a binary search per bound, O(R log F)."""
        return np.diff(np.searchsorted(frontier, self.partition.bounds))

    def _frontier_facts(self, frontier: np.ndarray) -> tuple[np.ndarray, int]:
        """A frontier's per-rank sizes and degree sum, from scratch.  The
        level loop carries both forward from each step instead, and
        calls this only for a root or a frontier restored by rollback."""
        degree = int(self.prepared.degrees[frontier].sum())
        return self._rank_sizes(frontier), degree

    # ---- the run -----------------------------------------------------------

    def run(self, root: int) -> BFSResult:
        """Execute one BFS from ``root`` and price it."""
        tr = self.tracer
        with tr.span("bfs.run", cat="run", root=root), self.hostprof.phase(
            "run"
        ):
            (result,) = self._run_lanes([root])
        if tr.enabled:
            result.telemetry = RunTelemetry.from_tracer(tr, self.metrics)
            from repro.obs.analyze import attribute_run

            result.telemetry.attribution = attribute_run(result)
        if self.metrics is not None:
            self._record_metrics(result)
        return result

    def _run_lanes(
        self, roots: list[int], cancel=NEVER_CANCELLED
    ) -> list[BFSResult]:
        """The level loop over one lane per root; one priced result each.

        A lane is one traversal: its row of the ``(lanes, n)`` parent
        table, of the ``(lanes, ranks)`` unexplored degrees and of the
        codec history, plus its own direction policy and level counts.
        Every round each live lane decides its direction, the top-down
        lanes share one :meth:`_top_down_step` and the bottom-up lanes one
        :meth:`_bottom_up_lanes`, so a lane's result is bit-identical to
        running its root alone.  ``cancel`` (anything with a
        ``check(where)`` that raises on expiry) is consulted once per
        round.  The recovery hooks address lane 0: only :meth:`run`
        reaches them with fault tolerance on.
        """
        graph = self.graph
        n = graph.num_vertices
        num = len(roots)
        np_ranks = self.mapping.num_ranks
        degrees = self.prepared.degrees
        owner_of = self.prepared.owner_of
        parent = np.full((num, n), -1, dtype=np.int64)
        # m_u of Beamer's alpha test, per lane and rank, maintained
        # decrementally.
        unexplored = np.repeat(self.prepared.rank_degree[None], num, axis=0)
        for s, r in enumerate(roots):
            if not 0 <= r < n:
                raise GraphError(
                    f"root {r} out of range", vertex=r, num_vertices=n
                )
            parent[s, r] = r
            unexplored[s, owner_of[r]] -= degrees[r]
        frontiers = [np.array([r], dtype=np.int64) for r in roots]
        # Per lane, its frontier's per-rank sizes (this level's
        # frontier_local, the last level's discovered) and degree sum.
        facts = [self._frontier_facts(f) for f in frontiers]
        sizes = [size for size, _ in facts]
        frontier_edges = [edges for _, edges in facts]
        policies = [DirectionPolicy(self.config) for _ in roots]
        counts = [RunCounts(num_vertices=n, num_ranks=np_ranks) for _ in roots]
        prev_direction: list[str | None] = [None] * num
        lcs: list[LevelCounts | None] = [None] * num
        shared = self._shared_buffers()
        # Per lane, the union of all previously allgathered in_queues:
        # common knowledge shared by encoder and decoder, which the sieve
        # codec exploits.  Only maintained when a non-identity codec is
        # active — the raw path stays exactly the seed implementation.
        visited_words = (
            np.zeros((num, bitops.words_for_bits(n)), dtype=bitops.WORD_DTYPE)
            if self.codec is not None
            else None
        )
        rec = self.recovery
        rec.start(
            policies[0], parent[0], unexplored[0], counts[0],
            None if visited_words is None else visited_words[0],
        )
        tr = self.tracer
        hp = self.hostprof
        level = 0
        while True:
            live = [s for s in range(num) if frontiers[s].size]
            if not live:
                break
            cancel.check(f"batch round {level}")
            rec.top_of_level(level, prev_direction[0], frontiers[0])

            top_down, bottom_up = [], []
            with hp.phase("frontier_stats"):
                for s in live:
                    frontier = frontiers[s]
                    direction = policies[s].decide(
                        FrontierStats(
                            frontier_vertices=int(frontier.size),
                            frontier_edges=frontier_edges[s],
                            unexplored_edges=int(unexplored[s].sum()),
                            num_vertices=n,
                        ),
                        tracer=tr,
                    )
                    lc = LevelCounts(level=level, direction=direction)
                    # Frontier statistics + termination check: 3 small
                    # allreduces per level (n_f, m_f, m_u), as the hybrid
                    # switch requires.
                    lc.allreduces = 3
                    prev = prev_direction[s]
                    lc.switched = prev is not None and prev != direction
                    lc.frontier_local = sizes[s]
                    lcs[s] = lc
                    if direction == Direction.TOP_DOWN:
                        top_down.append(s)
                    else:
                        bottom_up.append(s)

            try:
                with tr.span(
                    "level",
                    cat="level",
                    level=level,
                    top_down=len(top_down),
                    bottom_up=len(bottom_up),
                ):
                    stepped = []
                    if top_down:
                        stepped.append((top_down, self._top_down_step(
                            [frontiers[s] for s in top_down],
                            parent,
                            np.asarray(top_down, dtype=np.int64),
                            [lcs[s] for s in top_down],
                        )))
                    if bottom_up:
                        stepped.append((bottom_up, self._bottom_up_lanes(
                            bottom_up, frontiers, parent, lcs, shared,
                            visited_words,
                        )))
                for lanes, (new, disc_degree) in stepped:
                    for s, frontier, disc in zip(lanes, new, disc_degree):
                        frontiers[s] = frontier
                        unexplored[s] -= disc
                        frontier_edges[s] = int(disc.sum())
                for s in live:
                    lc = lcs[s]
                    lc.discovered = sizes[s] = self._rank_sizes(frontiers[s])
                    counts[s].levels.append(lc)
                    prev_direction[s] = lc.direction
                rec.barrier(level)
                level += 1
            except RollbackFault as fault:
                # A corrupted gather (nothing durable mutated yet) or a
                # crash at the barrier: restore lane 0 and rebuild what
                # the loop carries across levels from the restored
                # frontier.
                frontiers[0], level, prev_direction[0] = rec.rollback(fault)
                sizes[0], frontier_edges[0] = self._frontier_facts(frontiers[0])

        results = []
        for s, root in enumerate(roots):
            run_counts = counts[s]
            run_counts.visited_vertices = int(np.count_nonzero(parent[s] >= 0))
            # Reached degree = all arcs minus the unexplored ones.
            run_counts.traversed_edges = (
                graph.num_directed_edges - int(unexplored[s].sum())
            ) // 2
            with tr.span("bfs.price", cat="pricing"), hp.phase("price"):
                timing = assemble(
                    run_counts, self.comm, self.config, self.sizes,
                    self.constants,
                )
            results.append(
                BFSResult(
                    root=root,
                    # A lane's own copy, so a result does not pin the table.
                    parent=parent[s] if num == 1 else parent[s].copy(),
                    levels=len(run_counts.levels),
                    counts=run_counts,
                    timing=timing,
                )
            )
        rec.finish(results[0])
        return results

    def _record_metrics(self, result: BFSResult) -> None:
        """Fold one run's counts and timings into the metrics registry."""
        m = self.metrics
        m.counter("bfs.runs_total").inc()
        m.gauge("bfs.last_run.teps").set(result.teps)
        m.gauge("bfs.last_run.simulated_seconds").set(result.seconds)
        for phase, ns in result.timing.breakdown.as_dict().items():
            m.counter("bfs.phase_sim_ns_total", phase=phase).inc(ns)
        stall_hist = m.histogram("bfs.level_stall_ns")
        for lc, lt in zip(result.counts.levels, result.timing.levels):
            m.counter("bfs.levels_total", direction=lc.direction).inc()
            for comp, ns in lt.comm_components().items():
                m.counter(
                    "bfs.comm.component_sim_ns_total", component=comp
                ).inc(ns)
            m.histogram(
                "bfs.level_compute_imbalance", direction=lc.direction
            ).observe(lt.compute_imbalance)
            m.counter(
                "bfs.examined_edges_total", direction=lc.direction
            ).inc(float(lc.examined_edges.sum()))
            if lc.switched:
                m.counter("bfs.direction_switches_total").inc()
            comp_max = float(lt.compute_rank_ns.max(initial=0.0))
            for t in lt.compute_rank_ns:
                stall_hist.observe(comp_max - float(t))
            if lc.direction == Direction.BOTTOM_UP:
                codec = lc.codec or "raw"
                raw_b = lc.inq_raw_total_bytes + lc.summary_raw_total_bytes
                wire_b = lc.inq_wire_total_bytes + lc.summary_wire_total_bytes
                if raw_b > 0:
                    m.counter(
                        "bfs.comm.allgather_raw_bytes_total", codec=codec
                    ).inc(raw_b)
                    m.counter(
                        "bfs.comm.allgather_wire_bytes_total", codec=codec
                    ).inc(wire_b)
                    if wire_b > 0:
                        m.histogram(
                            "bfs.comm.compression_ratio", codec=codec
                        ).observe(raw_b / wire_b)
                examined = float(lc.examined_edges.sum())
                if examined > 0 and self.config.use_summary:
                    # Fraction of examined edges that fell through the
                    # summary filter to a real in_queue read (Fig. 16's
                    # trade-off, observed per level).
                    m.histogram("bfs.summary_inqueue_read_fraction").observe(
                        float(lc.inqueue_reads.sum()) / examined
                    )

    # ---- level kernels -------------------------------------------------------

    def _top_down_step(
        self,
        frontiers: list[np.ndarray],
        parent: np.ndarray,
        rows: np.ndarray,
        lcs: list[LevelCounts],
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """One top-down level for every lane at once (a run is one lane).

        ``frontiers[b]`` is lane ``b``'s frontier (global ids, rank-major),
        ``parent`` the ``(sources, n)`` parent table, ``rows[b]`` the row
        lane ``b`` writes and ``lcs[b]`` its level record.  The kernel
        call is the whole step, discoveries included, and it records each
        lane's alltoallv byte matrix, which :func:`assemble` prices once
        per run.  The data-less :meth:`SimComm.alltoallv` runs here only
        to give a fault injector its attempt and a tracer its comm event,
        so without either it is skipped.  Applying before that is safe:
        faults corrupt only allgather payloads, an exhausted retry aborts
        the run and a crash rolls ``parent`` back from the checkpoint.
        Returns the next frontiers and the per-(lane, rank) discovered
        degree.
        """
        np_ranks = self.mapping.num_ranks
        owner_of = self.prepared.owner_of
        tr = self.tracer
        hp = self.hostprof
        with tr.span("phase.td_expand", cat="phase") as sp, hp.phase(
            "td_expand"
        ):
            res = self.kernel.top_down_expand(
                self.graph, frontiers, parent, rows, owner_of,
                self.partition.bounds,
            )
            if tr.enabled:
                sp.set(
                    frontier=[lc.frontier_local.tolist() for lc in lcs],
                    examined_edges=res.examined_edges.tolist(),
                    received_pairs=(
                        res.send_bytes.sum(axis=1) // PAIR_BYTES
                    ).tolist(),
                    discovered=[
                        self._rank_sizes(f).tolist() for f in res.frontiers
                    ],
                )
        for b, lc in enumerate(lcs):
            lc.examined_edges = res.examined_edges[b]
            lc.candidates = np.zeros(np_ranks, dtype=np.int64)
            lc.inqueue_reads = np.zeros(np_ranks, dtype=np.int64)
            lc.td_send_bytes = res.send_bytes[b]
        if self.recovery.injects or tr.enabled:
            with tr.span("phase.td_exchange", cat="phase"), hp.phase(
                "td_exchange"
            ):
                for lc in lcs:
                    self.recovery.exchange(
                        "alltoallv", lc.level,
                        partial(self.comm.alltoallv, lc.td_send_bytes),
                    )
        return res.frontiers, res.disc_degree

    def _publish_frontier(
        self,
        frontier: np.ndarray,
        lc: LevelCounts,
        shared: list[NodeSharedBuffer] | None,
        visited_words: np.ndarray | None,
    ) -> tuple[Bitmap, SummaryBitmap | None]:
        """Allgather one frontier into the next ``in_queue`` and summary.

        ``frontier`` holds global vertex ids; ``visited_words`` is the
        codec's common-knowledge mask of this traversal (None without a
        codec).  Fills ``lc``'s ``inq_*``/``summary_*`` accounting.
        """
        config = self.config
        n = self.graph.num_vertices
        np_ranks = self.mapping.num_ranks
        word_starts = self._word_starts
        tr = self.tracer
        hp = self.hostprof
        # Rank partitions are word-aligned (PreparedGraph enforces it),
        # so the per-rank out_queue parts are exactly slices of the
        # full-graph bitmap: one set_bits covers all ranks.
        words = np.zeros(bitops.words_for_bits(n), dtype=bitops.WORD_DTYPE)
        bitops.set_bits(words, frontier)
        lc.inq_part_words = max(self._part_words, default=0)
        if config.use_summary:
            summary_words = summary_words_for(n, config.granularity)
            lc.summary_part_words = summary_words / np_ranks

        parts = [
            words[word_starts[r]:word_starts[r + 1]] for r in range(np_ranks)
        ]
        visited_parts = None
        if visited_words is not None:
            visited_parts = [
                visited_words[word_starts[r]:word_starts[r + 1]]
                for r in range(np_ranks)
            ]
        with tr.span("phase.bu_allgather", cat="phase"), hp.phase(
            "bu_allgather"
        ):
            res = self.recovery.exchange(
                "allgather", lc.level,
                partial(
                    allgather,
                    self.comm, parts, config.in_queue_algorithm(), shared,
                    codec=self.codec,
                    visited_parts=visited_parts,
                ),
            )
        lc.codec = res.codec
        lc.inq_raw_total_bytes = res.raw_bytes
        lc.inq_wire_total_bytes = res.wire_bytes
        lc.inq_wire_part_bytes = res.wire_part_bytes
        # Node-shared buffers hold the result only when the algorithm
        # delivered into them; an explicit non-shared algorithm override
        # (allowed under any sharing variant) returns the gathered array.
        if isinstance(res.data, np.ndarray):
            full_words = res.data
        else:
            full_words = res.data[0].data
        self.recovery.after_gather(lc.level, words, full_words)
        in_queue = Bitmap(n, words=full_words.copy())
        if visited_words is not None:
            # Fold the just-published frontier into the common-knowledge
            # mask *after* this allgather used the previous one — both
            # sides of the next level's sieve see the same history.
            np.bitwise_or(visited_words, in_queue.words, out=visited_words)
        # The summary is built locally from the gathered bitmap — the data
        # is bit-identical to the reference code's allgathered summary (it
        # is a pure function of in_queue); its allgather is priced via
        # lc.summary_part_words in timing.assemble.
        with tr.span("phase.bu_summary_build", cat="phase"), hp.phase(
            "bu_summary_build"
        ):
            summary = (
                SummaryBitmap.build(in_queue, config.granularity)
                if config.use_summary
                else None
            )
        if summary is not None:
            raw_bytes = summary_words * 8.0
            lc.summary_raw_total_bytes = raw_bytes
            if lc.codec not in (None, "raw"):
                # Price the summary's (not functionally executed)
                # allgather through the same codec the in_queue used: the
                # summary is a pure function of in_queue, so encoding the
                # full bitmap yields the exact wire payload the reference
                # code would transmit.  No visited mask — summary blocks
                # re-light across levels.
                enc = get_codec(lc.codec).encode(summary.words)
                lc.summary_wire_total_bytes = float(enc.wire_nbytes)
                lc.summary_wire_part_bytes = float(enc.wire_nbytes) / np_ranks
            else:
                lc.summary_wire_total_bytes = raw_bytes
                lc.summary_wire_part_bytes = lc.summary_part_words * 8.0
        return in_queue, summary

    def _bottom_up_lanes(
        self,
        lanes: list[int],
        frontiers: list[np.ndarray],
        parent: np.ndarray,
        lcs: list[LevelCounts],
        shared: list[NodeSharedBuffer] | None,
        visited_words: np.ndarray | None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """One bottom-up level for every lane in ``lanes``.

        Each lane's frontier is published on its own (codec wire bytes
        depend on its content), then one
        :meth:`~repro.core.kernels.KernelBackend.bottom_up_scan_batch`
        call scans every rank of every lane.  Each lane's counts land in
        ``lcs[lane]``.  Returns, per lane, the next frontier (global ids,
        ascending) and the per-rank discovered degree, as
        :meth:`_top_down_step` does.
        """
        tr = self.tracer
        hp = self.hostprof
        in_queues, summaries = [], []
        for s in lanes:
            in_queue, summary = self._publish_frontier(
                frontiers[s], lcs[s], shared,
                None if visited_words is None else visited_words[s],
            )
            in_queues.append(in_queue)
            summaries.append(summary)
        if tr.enabled:
            start_ns = time.perf_counter_ns()
        with hp.phase("bu_scan"):
            results = self.kernel.bottom_up_scan_batch(
                self.graph, parent, lanes, in_queues, summaries,
                self.partition.bounds,
            )
        if tr.enabled:
            # One span per lane, as a run records: each spans the round's
            # one scan call and carries that lane's per-rank counts.
            end_ns = time.perf_counter_ns()
            level_span = tr.current_span.index
            for s, res in zip(lanes, results):
                tr.record_span(
                    "phase.bu_scan",
                    cat="phase",
                    start_ns=start_ns,
                    end_ns=end_ns,
                    parent=level_span,
                    lane=s,
                    backend=self.kernel.name,
                    candidates=res.rank_candidates.tolist(),
                    examined_edges=res.rank_examined_edges.tolist(),
                    inqueue_reads=res.rank_inqueue_reads.tolist(),
                    gathered_edges=res.gathered_edges,
                    chunk_rounds=res.chunk_rounds,
                )
        for s, res in zip(lanes, results):
            lc = lcs[s]
            lc.candidates = res.rank_candidates
            lc.examined_edges = res.rank_examined_edges
            lc.inqueue_reads = res.rank_inqueue_reads
        return (
            [res.discovered for res in results],
            [res.rank_disc_degree for res in results],
        )
