"""Batched multi-source BFS: one traversal pass serving up to 64 roots.

The serving layer answers many concurrent ``(graph, source)`` queries
against the same prepared graph.  Running them one engine pass per
source repeats the per-level Python bookkeeping — direction decisions,
kernel dispatch, frontier exchange setup — once per source.  This module
instead advances **all sources of a batch one level per round** through
the engine's one level loop (``BFSEngine._run_lanes``), one *lane* per
source:

* the top-down lanes of a round share one rank-global step
  (``BFSEngine._top_down_step``), so expansion, dedup and discovery are
  one kernel call for the whole batch;
* each bottom-up lane is published on its own, then every bottom-up lane
  is scanned by one
  :meth:`~repro.core.kernels.KernelBackend.bottom_up_scan_batch` call —
  the single-source scan once per lane;
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

Batches are fault-free: the wrapped engine is built without a fault plan
or resilience config, so it holds the all-off recovery object
(:data:`~repro.faults.recovery.ALL_OFF`) and the loop's recovery hooks
do nothing.  Run faulty traversals through ``BFSEngine.run``.
"""

from __future__ import annotations

from repro.core.config import BFSConfig
from repro.core.engine import NEVER_CANCELLED, BFSEngine, BFSResult
from repro.core.prepared import PreparedGraph
from repro.core.timing import CostConstants
from repro.core.validate import validate_parent_tree
from repro.errors import ConfigError, GraphError
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec

__all__ = ["MAX_LANES", "MultiSourceEngine", "run_bfs_batch"]

#: Sources per batch (the serving scheduler's ``max_batch`` bound).
MAX_LANES = 64


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
        self.metrics = metrics

    @property
    def prepared(self) -> PreparedGraph:
        """The shared immutable partition state."""
        return self.engine.prepared

    @property
    def config(self) -> BFSConfig:
        """The resolved configuration shared by every lane."""
        return self.engine.config

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
        wrapped in a ``batch.run`` span and each lane is marked with a
        ``batch.lane`` instant (lane index, source vertex, and — when
        the serving scheduler passed them — the request ``trace_ids``
        riding that lane); ``batch_id`` stamps both so the serving
        layer's queue-wait spans link into the same chain.  Inside, the
        engine records what a run does: one ``level`` span per round.

        ``cancel`` is a cooperative cancellation token (anything with a
        ``check()`` raising on expiry, e.g.
        :class:`repro.serve.resilience.CancelToken`): it is consulted
        once per level-synchronous round, so a batch whose waiters all
        passed their deadlines stops traversing between levels instead
        of finishing work nobody will read.  ``None`` never fires.
        """
        tracer = self.tracer
        roots = [int(r) for r in roots]  # may be a one-shot iterable
        if not roots:
            raise GraphError("batch needs at least one root")
        if len(roots) > MAX_LANES:
            raise ConfigError(
                f"batch of {len(roots)} sources exceeds the {MAX_LANES}-lane "
                f"limit; split it (the serving scheduler does)"
            )
        with tracer.span(
            "batch.run",
            cat="batch",
            batch_id=batch_id,
            lanes=len(roots),
            sources=roots,
        ):
            if tracer.enabled:
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
            results = self.engine._run_lanes(roots, cancel or NEVER_CANCELLED)
        if validate:
            for result in results:
                validate_parent_tree(
                    self.engine.graph, result.root, result.parent
                )
        if self.metrics is not None:
            self.metrics.counter("bfs.batch_runs_total").inc()
            self.metrics.counter("bfs.batch_sources_total").inc(len(roots))
            self.metrics.histogram("bfs.batch_size").observe(len(roots))
        return results


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
