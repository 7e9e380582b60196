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
from repro.errors import FaultError, GraphError
from repro.faults.checkpoint import BFSCheckpoint
from repro.faults.injector import (
    FaultInjector,
    PayloadCorruptionFault,
    TransientCollectiveFault,
    words_checksum,
)
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryLog, RecoveryReport, ResilienceConfig
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
    # Filled only when the engine ran with fault tolerance enabled.
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
        # injector stays None, no communicator hook fires, and the level
        # loop takes the exact seed path.  A plan implies a (default)
        # ResilienceConfig; a ResilienceConfig alone enables
        # checkpointing/verification without injecting anything.
        if isinstance(faults, FaultPlan):
            faults = None if faults.empty else FaultInjector(faults)
        self.injector: FaultInjector | None = faults
        if self.injector is not None:
            self.injector.bind(tracer=self.tracer, metrics=self.metrics)
            if resilience is None:
                resilience = ResilienceConfig()
        self.resilience = resilience
        self._log: RecoveryLog | None = None
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
        inj = self.injector
        with tr.span("bfs.run", cat="run", root=root), self.hostprof.phase(
            "run"
        ):
            (result,) = self._run_lanes([root])
            if inj is not None and inj.has_stragglers:
                self._reprice_stragglers(result.timing, inj)
        if self.resilience is not None:
            result.recovery = RecoveryReport.from_log(
                self._log, result.timing, inj.events if inj is not None else []
            )
            if self.metrics is not None:
                self.metrics.counter("recovery.overhead_sim_ns_total").inc(
                    result.recovery.overhead_ns
                )
        if tr.enabled:
            result.telemetry = RunTelemetry.from_tracer(tr, self.metrics)
            from repro.obs.analyze import attribute_run

            result.telemetry.attribution = attribute_run(result)
        if self.metrics is not None:
            self._record_metrics(result)
        return result

    def _run_lanes(self, roots: list[int], cancel=None) -> list[BFSResult]:
        """The level loop over one lane per root; one priced result each.

        A lane is one traversal: its row of the ``(lanes, n)`` parent
        table, of the ``(lanes, ranks)`` unexplored degrees and of the
        codec history, plus its own direction policy and level counts.
        Every round each live lane decides its direction, the top-down
        lanes share one :meth:`_top_down_step` and the bottom-up lanes one
        :meth:`_bottom_up_lanes`, so a lane's result is bit-identical to
        running its root alone.  ``cancel`` (anything with a
        ``check(where)`` that raises on expiry) is consulted once per
        round.  The fault block at the level barrier addresses lane 0:
        only :meth:`run` reaches it with a plan.
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
        visited0 = None if visited_words is None else visited_words[0]

        inj = self.injector
        res_cfg = self.resilience
        log = RecoveryLog() if res_cfg is not None else None
        self._log = log
        if inj is not None:
            inj.reset()
        if res_cfg is not None:
            res_cfg.store.clear()
        last_ckpt_level = -1

        tr = self.tracer
        hp = self.hostprof
        level = 0
        while True:
            live = [s for s in range(num) if frontiers[s].size]
            if not live:
                break
            if cancel is not None:
                cancel.check(f"batch round {level}")
            if (
                res_cfg is not None
                and res_cfg.checkpoint_every > 0
                and level % res_cfg.checkpoint_every == 0
                and level != last_ckpt_level
            ):
                # Top-of-level snapshot: captured *before* the direction
                # decision so a rollback replays it too.  After a
                # rollback the restored level's state is identical to the
                # stored snapshot, so it is skipped rather than
                # re-captured (and re-priced).
                last_ckpt_level = level
                with hp.phase("checkpoint"):
                    self._checkpoint(
                        level, prev_direction[0], policies[0], parent[0],
                        unexplored[0], frontiers[0], visited0, log,
                    )
            if inj is not None:
                inj.begin_level(level)

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
            except PayloadCorruptionFault as exc:
                # Checksum mismatch: the gathered frontier is not
                # trustworthy; nothing durable was mutated yet, so roll
                # back and replay from the last snapshot.
                frontiers[0], level, prev_direction[0] = self._rollback(
                    "corruption", exc, level, policies[0], parent[0],
                    unexplored[0], counts[0], visited0, log,
                    lost_through=level,
                )
                sizes[0], frontier_edges[0] = self._frontier_facts(frontiers[0])
                last_ckpt_level = level
                continue

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
            level += 1

            if inj is not None:
                # Crash detection happens at the level barrier — the
                # crashed level's work completed on the survivors but is
                # lost with the dead rank, so it genuinely gets replayed
                # from the last snapshot.
                crash = inj.take_crash(level - 1)
                if crash is not None:
                    frontiers[0], level, prev_direction[0] = self._rollback(
                        "crash", None, level - 1, policies[0], parent[0],
                        unexplored[0], counts[0], visited0, log,
                        lost_through=level - 1, rank=crash.rank,
                    )
                    sizes[0], frontier_edges[0] = self._frontier_facts(
                        frontiers[0]
                    )
                    last_ckpt_level = level

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
        return results

    def _record_metrics(self, result: BFSResult) -> None:
        """Fold one run's counts and timings into the metrics registry."""
        m = self.metrics
        m.counter("bfs.runs_total").inc()
        m.counter("bfs.kernel_runs_total", backend=self.kernel.name).inc()
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

    # ---- fault tolerance -----------------------------------------------------

    def _rank_parents(self, parent: np.ndarray) -> list[np.ndarray]:
        """Each rank's view of the global parent array."""
        bounds = self.partition.bounds
        return [parent[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _checkpoint(
        self, level, prev_direction, policy, parent, unexplored, frontier,
        visited_words, log,
    ) -> None:
        """Snapshot the run at a level boundary and price the capture.

        The snapshot keeps the per-rank layout recovery pricing and the
        on-disk format are defined over: parent slices, unexplored
        degrees and local-id frontier lists."""
        res_cfg = self.resilience
        parts = np.split(frontier, np.cumsum(self._rank_sizes(frontier))[:-1])
        ckpt = BFSCheckpoint.capture(
            level=level,
            prev_direction=prev_direction,
            policy=policy,
            parents=self._rank_parents(parent),
            unexplored=unexplored,
            frontier_lists=[
                part - lo for part, lo in zip(parts, self.partition.bounds)
            ],
            visited_words=visited_words,
        )
        with self.tracer.span(
            "recovery.checkpoint", cat="recovery",
            level=level, nbytes=ckpt.nbytes,
        ):
            res_cfg.store.put(ckpt)
        log.checkpoints += 1
        log.checkpoint_bytes += ckpt.nbytes
        log.fixed_overhead_ns += res_cfg.cost.checkpoint_ns(
            ckpt.nbytes, res_cfg.on_disk
        )
        if self.metrics is not None:
            self.metrics.counter("recovery.checkpoints_total").inc()
            self.metrics.counter("recovery.checkpoint_bytes_total").inc(
                float(ckpt.nbytes)
            )

    def _rollback(
        self, kind, cause, at_level, policy, parent, unexplored, counts,
        visited_words, log, *, lost_through, rank=None,
    ):
        """Restore the latest snapshot after a fault at ``at_level``.

        Rewinds the live state, truncates the already-recorded level
        counts (the final pricing must never double-count a replayed
        level) and logs the lost executions — levels ``ckpt.level``
        through ``lost_through`` inclusive ran once for nothing, so
        :meth:`RecoveryLog.overhead_ns` charges each of them once more at
        its final price.  Returns ``(frontier, level, prev_direction)``
        to resume from; ``parent``, ``unexplored`` and ``visited_words``
        are restored in place so live views stay valid.
        """
        res_cfg = self.resilience
        if res_cfg is None:
            raise FaultError(
                f"{kind} fault with fault tolerance disabled",
                kind=kind, level=at_level, rank=rank,
            ) from cause
        ckpt = res_cfg.store.latest()
        if ckpt is None:
            raise FaultError(
                f"{kind} fault at level {at_level} with no checkpoint to "
                f"restore from",
                kind=kind, level=at_level, rank=rank,
            ) from cause
        if log.rollbacks >= res_cfg.max_rollbacks:
            raise FaultError(
                f"rollback budget exhausted after {log.rollbacks} "
                f"rollbacks",
                kind=kind, level=at_level, rank=rank,
                max_rollbacks=res_cfg.max_rollbacks,
            ) from cause
        log.rollbacks += 1
        with self.tracer.span(
            "recovery.rollback", cat="recovery",
            kind=kind, from_level=at_level, to_level=ckpt.level,
        ):
            frontier_lists, visited = ckpt.restore(
                policy, self._rank_parents(parent), unexplored
            )
            if visited_words is not None and visited is not None:
                visited_words[:] = visited
        frontier = np.concatenate(
            [f + lo for f, lo in zip(frontier_lists, self.partition.bounds)]
        )
        del counts.levels[ckpt.level:]
        log.replayed_levels.extend(range(ckpt.level, lost_through + 1))
        overhead = res_cfg.cost.restore_ns(ckpt.nbytes, res_cfg.on_disk)
        if kind == "crash":
            overhead += res_cfg.cost.crash_detect_ns + res_cfg.cost.respawn_ns
        log.fixed_overhead_ns += overhead
        log.note(
            "rollback", kind=kind, from_level=at_level, to_level=ckpt.level,
            fixed_ns=overhead, rank=rank,
        )
        if self.metrics is not None:
            self.metrics.counter("recovery.rollbacks_total", kind=kind).inc()
        return frontier, ckpt.level, ckpt.prev_direction

    def _exchange(self, op, level, fn):
        """Run one collective with bounded retry on transient faults.

        Each failed attempt wasted its full priced duration (the payload
        is retransmitted from scratch) plus an exponential backoff; both
        land in the recovery overhead, never in the level's own pricing.
        Exhausting the attempt budget aborts the run with a typed
        :class:`~repro.errors.FaultError`.
        """
        if self.injector is None:
            return fn()
        res_cfg = self.resilience
        log = self._log
        last = None
        for attempt in range(1, res_cfg.max_attempts + 1):
            try:
                return fn()
            except TransientCollectiveFault as exc:
                last = exc
                backoff = res_cfg.cost.backoff_ns(attempt)
                log.retries += 1
                log.fixed_overhead_ns += exc.wasted_ns + backoff
                log.note(
                    "retry", collective=op, level=level, attempt=attempt,
                    wasted_ns=exc.wasted_ns, backoff_ns=backoff,
                )
                if self.metrics is not None:
                    self.metrics.counter(
                        "recovery.retries_total", collective=op
                    ).inc()
        raise FaultError(
            f"{op} failed after {res_cfg.max_attempts} attempts at level "
            f"{level}",
            collective=op, level=level, attempts=res_cfg.max_attempts,
        ) from last

    def _reprice_stragglers(self, timing: BfsTiming, inj) -> None:
        """Fold the plan's straggler slowdowns into the final pricing.

        A straggler is a pure pricing perturbation — it changes no
        functional result, so it is applied after :func:`assemble`:
        per-rank compute times stretch by the slowdown factor, the level
        mean/max/stall are recomputed, and the Fig. 11 breakdown absorbs
        the deltas (everyone waits for the slow rank at the barrier).
        """
        bd = timing.breakdown
        for lt in timing.levels:
            factors = np.array(
                [
                    inj.straggler_factor(r, lt.level)
                    for r in range(len(lt.compute_rank_ns))
                ]
            )
            if not np.any(factors > 1.0):
                continue
            old_mean = lt.compute_mean_ns
            old_stall = lt.stall_ns
            lt.compute_rank_ns = lt.compute_rank_ns * factors
            lt.compute_mean_ns = float(lt.compute_rank_ns.mean())
            lt.compute_max_ns = float(lt.compute_rank_ns.max())
            lt.stall_ns = lt.compute_max_ns - lt.compute_mean_ns
            if lt.direction == Direction.TOP_DOWN:
                bd.td_compute += lt.compute_mean_ns - old_mean
            else:
                bd.bu_compute += lt.compute_mean_ns - old_mean
            bd.stall += lt.stall_ns - old_stall

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
        if self.injector is not None or tr.enabled:
            with tr.span("phase.td_exchange", cat="phase"), hp.phase(
                "td_exchange"
            ):
                for lc in lcs:
                    self._exchange(
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
        verify = (
            self.resilience is not None and self.resilience.verify_checksums
        )
        if verify:
            # Sender-side checksum: the gathered concatenation must
            # reproduce it exactly (codecs are lossless), so any
            # in-flight bit flip is caught here before a single byte of
            # it reaches engine state.
            exp_x, exp_s = words_checksum(words)
        with tr.span("phase.bu_allgather", cat="phase"), hp.phase(
            "bu_allgather"
        ):
            res = self._exchange(
                "allgather", lc.level,
                partial(
                    allgather,
                    self.comm, parts, config.in_queue_algorithm(), shared,
                    codec=self.codec,
                    visited_parts=visited_parts,
                    subgroups=config.comm.subgroups,
                ),
            )
        lc.codec = res.codec
        lc.inq_raw_total_bytes = res.raw_bytes
        lc.inq_wire_total_bytes = res.wire_bytes
        lc.inq_wire_part_bytes = res.wire_part_bytes
        if shared is not None:
            full_words = shared[0].data
        else:
            full_words = res.data
        if verify:
            got_x, got_s = words_checksum(full_words)
            self._log.fixed_overhead_ns += self.resilience.cost.checksum_ns(
                full_words.size * 8
            )
            if (got_x, got_s) != (exp_x, exp_s):
                raise PayloadCorruptionFault(
                    "frontier checksum mismatch after allgather",
                    collective="allgather",
                    level=lc.level,
                    expected=f"{exp_x:016x}/{exp_s:016x}",
                    actual=f"{got_x:016x}/{got_s:016x}",
                )
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
        m = self.metrics
        for s, res in zip(lanes, results):
            lc = lcs[s]
            lc.candidates = res.rank_candidates
            lc.examined_edges = res.rank_examined_edges
            lc.inqueue_reads = res.rank_inqueue_reads
            if m is not None:
                # Per-level active-set diagnostics (never priced): how
                # much adjacency the backend materialized to produce the
                # level's examined count, and how many wavefront rounds
                # it took.
                m.counter(
                    "bfs.bu.gathered_edges_total", backend=self.kernel.name
                ).inc(float(res.gathered_edges))
                m.counter(
                    "bfs.bu.scan_examined_edges_total",
                    backend=self.kernel.name,
                ).inc(float(res.examined_edges))
                m.histogram(
                    "bfs.bu.chunk_rounds", backend=self.kernel.name
                ).observe(float(res.chunk_rounds))
        return (
            [res.discovered for res in results],
            [res.rank_disc_degree for res in results],
        )
