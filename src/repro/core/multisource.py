"""Batched multi-source BFS: one traversal pass serving up to 64 roots.

The serving layer answers many concurrent ``(graph, source)`` queries
against the same prepared graph.  Running them one engine pass per
source repeats all the per-level machinery — the frontier exchange, the
kernel dispatch, the scattered CSR loads — once per source.  This module
instead advances **all sources of a batch one level per round**,
amortizing the expensive shared work:

* the bottom-up scan gathers each candidate's adjacency once and
  answers every source from bit-packed *lane* words (one ``uint64`` lane
  per source, :mod:`repro.core.kernels.batched`);
* the top-down level is the engine's one rank-global step
  (``BFSEngine._top_down_step``) run with one lane per source, so the
  adjacency gather, dedup and discovery are a handful of vectorized
  passes for the whole batch;
* the prepared partition, the communicator, and the shared-memory
  buffers are built once per batch.

**Bit-identity contract**: every :class:`~repro.core.engine.BFSResult`
returned by :meth:`MultiSourceEngine.run_batch` is bit-identical —
parent tree, per-level counts, byte accounting, and hence priced
simulated seconds — to what ``BFSEngine.run`` produces for that root
alone.  Each source keeps its own direction policy, level counts and
(when a codec is active) allgather history, so batching changes only
host-side wall-clock, never the simulation.  The per-source allgather is
still executed for real (one per source per bottom-up level) because
codec wire bytes depend on each source's frontier content.

Batch mode intentionally rejects fault injection and resilience: replay
and rollback are per-run concepts that do not compose with shared
lanes.  Run faulty traversals through ``BFSEngine`` directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.core.engine import BFSEngine, BFSResult
from repro.core.hybrid import DirectionPolicy, FrontierStats
from repro.core.kernels.batched import MAX_LANES
from repro.core.prepared import PreparedGraph
from repro.core.timing import CostConstants, assemble
from repro.obs.tracer import NULL_TRACER
from repro.core.validate import validate_parent_tree
from repro.errors import ConfigError, GraphError
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.util import bitops

__all__ = ["MultiSourceEngine", "run_bfs_batch"]

#: Shared inert context manager for untraced batch rounds.
_NO_SPAN = NULL_TRACER.span("")


class MultiSourceEngine:
    """Reusable batched BFS executor for one (graph, cluster, config).

    Wraps a fault-free :class:`BFSEngine` (reusing its resolved kernel,
    codec, communicator and prepared partition) and adds
    :meth:`run_batch`.  Like the engine, instances are reusable across
    batches; they are not safe for concurrent use from multiple threads
    (the serving scheduler serializes batches per session).
    """

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        config: BFSConfig | None = None,
        constants: CostConstants = CostConstants(),
        prepared: PreparedGraph | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        config = config or BFSConfig.original_ppn8()
        self.engine = BFSEngine(
            graph, cluster, config, constants=constants, prepared=prepared,
            tracer=tracer,
        )
        # The engine resolved None to NULL_TRACER; share its choice so
        # batch spans and comm events land in the same recording.
        self.tracer = self.engine.tracer
        self._owner_of = self.engine.prepared.owner_of
        self.metrics = metrics

    @property
    def prepared(self) -> PreparedGraph:
        """The shared immutable partition state."""
        return self.engine.prepared

    @property
    def config(self) -> BFSConfig:
        """The resolved configuration shared by every lane."""
        return self.engine.config

    # ---- the batch run ---------------------------------------------------

    def run_batch(
        self,
        roots,
        validate: bool = False,
        trace_ids=None,
        batch_id: str | None = None,
        cancel=None,
    ) -> list[BFSResult]:
        """Run one BFS per root, all advanced level-by-level together.

        Returns one :class:`BFSResult` per root, in input order, each
        bit-identical to a sequential ``BFSEngine.run(root)``.

        When the engine carries a recording tracer, the whole batch is
        wrapped in a ``batch.run`` span, each lane is marked with a
        ``batch.lane`` instant (lane index, source vertex, and — when
        the serving scheduler passed them — the request ``trace_ids``
        riding that lane), and every level-synchronous round gets a
        ``batch.level`` span.  ``batch_id`` stamps all of them so the
        serving layer's queue-wait spans link into the same chain.

        ``cancel`` is a cooperative cancellation token (anything with a
        ``check()`` raising on expiry, e.g.
        :class:`repro.serve.resilience.CancelToken`): it is consulted
        once per level-synchronous round, so a batch whose waiters all
        passed their deadlines stops traversing between levels instead
        of finishing work nobody will read.
        """
        tracer = self.tracer
        roots = [int(r) for r in roots]  # may be a one-shot iterable
        if not tracer.enabled:
            return self._run_batch(roots, validate, cancel=cancel)
        with tracer.span(
            "batch.run",
            cat="batch",
            batch_id=batch_id,
            lanes=len(roots),
            sources=roots,
        ):
            for lane, root in enumerate(roots):
                ids = (
                    list(trace_ids[lane])
                    if trace_ids is not None and lane < len(trace_ids)
                    else []
                )
                tracer.instant(
                    "batch.lane",
                    cat="batch",
                    lane=lane,
                    source=root,
                    batch_id=batch_id,
                    trace_ids=ids,
                )
            return self._run_batch(
                roots, validate, tracer=tracer, batch_id=batch_id,
                cancel=cancel,
            )

    def _run_batch(
        self,
        roots: list[int],
        validate: bool = False,
        tracer=NULL_TRACER,
        batch_id: str | None = None,
        cancel=None,
    ) -> list[BFSResult]:
        eng = self.engine
        graph = eng.graph
        n = graph.num_vertices
        num = len(roots)
        if num == 0:
            raise GraphError("batch needs at least one root")
        if num > MAX_LANES:
            raise ConfigError(
                f"batch of {num} sources exceeds the {MAX_LANES}-lane "
                f"limit; split it (the serving scheduler does)"
            )
        for r in roots:
            if not 0 <= r < n:
                raise GraphError(
                    f"root {r} out of range", vertex=r, num_vertices=n
                )

        np_ranks = eng.mapping.num_ranks
        partition = eng.partition
        degrees = eng.prepared.degrees
        config = eng.config

        parent = np.full((num, n), -1, dtype=np.int64)
        unexplored = np.tile(eng.prepared.rank_degree, (num, 1))

        frontiers: list[np.ndarray] = []
        for s, root in enumerate(roots):
            parent[s, root] = root
            owner = int(partition.owner(root))
            unexplored[s, owner] -= int(degrees[root])
            frontiers.append(np.array([root], dtype=np.int64))

        policies = [DirectionPolicy(config) for _ in range(num)]
        counts_list = [
            RunCounts(num_vertices=n, num_ranks=np_ranks)
            for _ in range(num)
        ]
        prev_dir: list[str | None] = [None] * num
        levels = [0] * num
        finished = [False] * num

        shared = eng._shared_buffers()
        visited_words = (
            np.zeros(
                (num, bitops.words_for_bits(n)), dtype=bitops.WORD_DTYPE
            )
            if eng.codec is not None
            else None
        )

        rounds = 0
        while not all(finished):
            if cancel is not None:
                cancel.check(f"batch round {rounds}")
            ctx = (
                tracer.span(
                    "batch.level",
                    cat="batch",
                    round=rounds,
                    batch_id=batch_id,
                )
                if tracer.enabled
                else _NO_SPAN
            )
            with ctx:
                td_set: list[int] = []
                bu_set: list[int] = []
                lcs: dict[int, LevelCounts] = {}
                for s in range(num):
                    if finished[s]:
                        continue
                    f = frontiers[s]
                    if f.size == 0:
                        finished[s] = True
                        continue
                    stats = FrontierStats(
                        frontier_vertices=int(f.size),
                        frontier_edges=int(degrees[f].sum()),
                        unexplored_edges=int(unexplored[s].sum()),
                        num_vertices=n,
                    )
                    direction = policies[s].decide(stats)
                    lc = LevelCounts(level=levels[s], direction=direction)
                    lc.allreduces = 3
                    lc.switched = (
                        prev_dir[s] is not None and prev_dir[s] != direction
                    )
                    lc.frontier_local = np.bincount(
                        self._owner_of[f], minlength=np_ranks
                    ).astype(np.int64)
                    lcs[s] = lc
                    if direction == Direction.TOP_DOWN:
                        td_set.append(s)
                    else:
                        bu_set.append(s)

                if td_set:
                    self._top_down_round(
                        td_set, frontiers, parent, unexplored, lcs
                    )
                if bu_set:
                    self._bottom_up_round(
                        bu_set, frontiers, parent, unexplored, lcs, shared,
                        visited_words,
                    )
                for s in (*td_set, *bu_set):
                    lc = lcs[s]
                    lc.discovered = np.bincount(
                        self._owner_of[frontiers[s]], minlength=np_ranks
                    ).astype(np.int64)
                    counts_list[s].levels.append(lc)
                    prev_dir[s] = lc.direction
                    levels[s] += 1
                if tracer.enabled:
                    ctx.set(top_down=len(td_set), bottom_up=len(bu_set))
            rounds += 1

        results: list[BFSResult] = []
        for s, root in enumerate(roots):
            counts = counts_list[s]
            row = parent[s]
            counts.visited_vertices = int(np.count_nonzero(row >= 0))
            counts.traversed_edges = int(degrees[row >= 0].sum()) // 2
            timing = assemble(
                counts, eng.comm, config, eng.sizes, eng.constants
            )
            if validate:
                validate_parent_tree(graph, root, row)
            results.append(
                BFSResult(
                    root=root,
                    parent=row.copy(),
                    levels=levels[s],
                    counts=counts,
                    timing=timing,
                )
            )
        if self.metrics is not None:
            self.metrics.counter("bfs.batch_runs_total").inc()
            self.metrics.counter("bfs.batch_sources_total").inc(num)
            self.metrics.histogram("bfs.batch_size").observe(num)
        return results

    # ---- the two level kinds ----------------------------------------------

    def _top_down_round(
        self, td, frontiers, parent, unexplored, lcs
    ) -> None:
        """One top-down level for all top-down sources: the engine's
        shared step with one lane per source."""
        new_frontiers, disc_degree = self.engine._top_down_step(
            [frontiers[s] for s in td],
            parent,
            np.asarray(td, dtype=np.int64),
            [lcs[s] for s in td],
        )
        unexplored[td] -= disc_degree
        for s, frontier in zip(td, new_frontiers):
            frontiers[s] = frontier

    def _bottom_up_round(
        self, bu, frontiers, parent, unexplored, lcs, shared, visited_words
    ) -> None:
        """One bottom-up level for all batched sources.

        The frontier publish (and its codec byte accounting) runs per
        source — wire bytes depend on each source's frontier content —
        but the scan itself is a single lane pass over the graph.
        """
        eng = self.engine
        np_ranks = eng.mapping.num_ranks
        degrees = eng.prepared.degrees
        B = len(bu)

        in_queues, summaries = [], []
        for s in bu:
            in_queue, summary = eng._publish_frontier(
                frontiers[s], lcs[s], shared,
                None if visited_words is None else visited_words[s],
            )
            in_queues.append(in_queue)
            summaries.append(summary)

        # One scan over the whole graph: the counts come back split per
        # rank via the owner groups, and — partitions being contiguous
        # ascending ranges — the (lane, vertex) discovery order is
        # already the sequential rank-major order.
        res = eng.kernel.bottom_up_scan_batch(
            eng.graph,
            parent,
            np.asarray(bu, dtype=np.int64),
            in_queues,
            summaries if eng.config.use_summary else None,
            groups=self._owner_of,
            num_groups=np_ranks,
        )
        cuts = np.searchsorted(res.disc_lane, np.arange(B + 1))
        for b, s in enumerate(bu):
            lc = lcs[s]
            lc.candidates = res.candidates[:, b].copy()
            lc.examined_edges = res.examined_edges[:, b].copy()
            lc.inqueue_reads = res.inqueue_reads[:, b].copy()
            discovered = res.disc_local[cuts[b]:cuts[b + 1]]
            if discovered.size:
                parent[s, discovered] = res.disc_parent[
                    cuts[b]:cuts[b + 1]
                ]
                unexplored[s] -= (
                    np.bincount(
                        self._owner_of[discovered],
                        weights=degrees[discovered].astype(np.float64),
                        minlength=np_ranks,
                    ).astype(np.int64)
                )
            frontiers[s] = discovered.copy()


def run_bfs_batch(
    graph: Graph,
    roots,
    cluster: ClusterSpec | None = None,
    config: BFSConfig | None = None,
    validate: bool = False,
    prepared: PreparedGraph | None = None,
) -> list[BFSResult]:
    """One-call batched traversal (the multi-source ``run_bfs``)."""
    from repro.machine.spec import paper_cluster

    cluster = cluster or paper_cluster(nodes=1)
    return MultiSourceEngine(
        graph, cluster, config, prepared=prepared
    ).run_batch(roots, validate=validate)
