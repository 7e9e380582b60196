"""Graph500 protocol with paper-scale pricing.

``predict_graph500`` runs the real algorithm on a reduced-scale R-MAT
graph and prices every root's run at the paper's target scale.  All the
weak-scaling experiments (Figs. 9, 12-16) are built on this: the paper
pairs node counts with scales (1 node -> 28, 2 -> 29, 4 -> 30, 8 -> 31,
16 -> 32), and the reproduction runs each at ``scale - offset``.

Count once, price many: most variants of a sweep differ only in how a
run is priced (binding, sharing, the allgather schedule, the cluster's
network), not in what the BFS does.  The measured counts of each
distinct traversal (graph, :meth:`~repro.core.config.BFSConfig.count_key`,
roots) are therefore memoised, and every variant is priced from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.counts import RunCounts
from repro.core.engine import BFSEngine
from repro.core.prepared import graph_digest
from repro.core.teps import RootAverages
from repro.core.timing import BfsTiming, CostConstants
from repro.graph.degree import sample_roots
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.model.extrapolate import ScaledPrediction, extrapolate_result
from repro.util.lru import LRUCache

__all__ = ["PredictedGraph500", "predict_graph500"]

#: Byte bound of the counts memo (a 128-rank run's top-down levels carry
#: a 128 KB send matrix each, so one entry is at most a few MB).
_COUNT_MEMO_BYTES = 64 << 20


def _arrays(runs: tuple[RunCounts, ...]):
    """Every per-rank array of some runs' counts."""
    for counts in runs:
        for lc in counts.levels:
            yield from (
                lc.frontier_local, lc.candidates, lc.examined_edges,
                lc.inqueue_reads, lc.discovered,
            )
            if lc.td_send_bytes is not None:
                yield lc.td_send_bytes


#: (graph digest, count key, num_roots, seed) -> the measured-scale
#: counts of the sampled roots, in root order.  Counts only: no parent
#: arrays and no timings.  The arrays are frozen read-only, and pricing
#: (``RunCounts.scaled``) always copies.
_COUNT_MEMO = LRUCache(
    maxsize=1024,
    max_bytes=_COUNT_MEMO_BYTES,
    sizeof=lambda runs: sum(arr.nbytes for arr in _arrays(runs)),
    name="count memo",
)


@dataclass
class PredictedGraph500(RootAverages):
    """Aggregate of a Graph500 evaluation priced at ``target_scale``."""

    config: BFSConfig
    target_scale: int
    measured_scale: int
    predictions: list[ScaledPrediction] = field(default_factory=list)

    @property
    def per_root_teps(self) -> list[float]:
        """Predicted TEPS per root."""
        return [p.teps for p in self.predictions]

    @property
    def per_root_seconds(self) -> list[float]:
        """Predicted seconds per root."""
        return [p.seconds for p in self.predictions]

    def root_timings(self) -> list[BfsTiming]:
        """Each root's run as priced at the target scale."""
        return [p.timing for p in self.predictions]

    def mean_allgather_bytes(self) -> dict[str, float]:
        """Mean per-root allgather payload totals at the target scale.

        Sums the bottom-up in_queue and summary allgathers; ``raw`` is
        the pre-codec payload, ``wire`` what the frontier codec actually
        put on the wire (equal under ``raw``).  This is the quantity the
        BENCH_comm.json baseline and the Fig. 12/13 codec claims report.
        """
        raw = wire = 0.0
        k = max(len(self.predictions), 1)
        for p in self.predictions:
            for lc in p.counts.levels:
                if lc.direction != "bottom_up":
                    continue
                raw += (
                    lc.inq_raw_total_bytes + lc.summary_raw_total_bytes
                ) / k
                wire += (
                    lc.inq_wire_total_bytes + lc.summary_wire_total_bytes
                ) / k
        return {"raw": raw, "wire": wire}


def predict_graph500(
    graph: Graph,
    cluster: ClusterSpec,
    config: BFSConfig,
    target_scale: int,
    num_roots: int = 8,
    seed: int = 2,
    constants: CostConstants = CostConstants(),
) -> PredictedGraph500:
    """Run the Graph500 protocol on ``graph`` and price it at
    ``2**target_scale`` vertices.

    The roots' measured counts come from the memo when an earlier call
    ran the same traversals (same graph, count key, roots); otherwise
    one engine runs them.  That engine, and its one prepared graph,
    prices every root either way.
    """
    engine = BFSEngine(graph, cluster, config, constants=constants)
    key = (
        graph_digest(graph),
        config.count_key(cluster, constants),
        num_roots,
        seed,
    )
    runs = _COUNT_MEMO.get(key)
    if runs is None:
        runs = tuple(
            engine.run(int(root)).counts
            for root in sample_roots(graph, num_roots, seed=seed)
        )
        for arr in _arrays(runs):
            arr.flags.writeable = False
        _COUNT_MEMO.put(key, runs)
    return PredictedGraph500(
        config=config,
        target_scale=target_scale,
        measured_scale=int(np.log2(graph.num_vertices)),
        predictions=[
            extrapolate_result(counts, engine, target_scale)
            for counts in runs
        ],
    )
