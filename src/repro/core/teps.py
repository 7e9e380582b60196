"""Graph500 evaluation driver.

The paper adopts the Graph500 method (IV.A): 64 random roots with degree
>= 1, one BFS per root, per-root TEPS = traversed edges / time, and the
final figure is the *harmonic mean* over the roots.  The driver also
averages the per-phase profile over the roots, which is what the paper's
breakdown figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import BFSConfig, CommConfig
from repro.core.engine import BFSEngine, BFSResult
from repro.core.prepared import PreparedGraph
from repro.core.timing import (
    BfsTiming,
    CostConstants,
    PhaseBreakdown,
    mean_bu_comm_ns,
)
from repro.core.validate import validate_parent_tree
from repro.graph.degree import sample_roots
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.util import harmonic_mean
from repro.util.stats_util import Summary, describe

__all__ = ["RootAverages", "Graph500Result", "run_graph500"]

GRAPH500_DEFAULT_ROOTS = 64


class RootAverages:
    """Per-root averages shared by measured and predicted evaluations.

    A subclass provides ``per_root_teps``, ``per_root_seconds`` and
    :meth:`root_timings`, one :class:`~repro.core.timing.BfsTiming` per
    root in root order.
    """

    @property
    def harmonic_mean_teps(self) -> float:
        """The Graph500 headline figure."""
        return harmonic_mean(self.per_root_teps)

    @property
    def mean_seconds(self) -> float:
        """Arithmetic mean of per-root traversal times."""
        return float(np.mean(self.per_root_seconds))

    def mean_breakdown(self) -> PhaseBreakdown:
        """Per-phase times averaged over the roots (ns)."""
        agg = PhaseBreakdown()
        timings = self.root_timings()
        k = len(timings)
        for timing in timings:
            bd = timing.breakdown
            agg.td_compute += bd.td_compute / k
            agg.td_comm += bd.td_comm / k
            agg.bu_compute += bd.bu_compute / k
            agg.bu_comm += bd.bu_comm / k
            agg.switch += bd.switch / k
            agg.stall += bd.stall / k
        return agg

    def mean_bu_comm_per_level(self) -> float:
        """Average time of each bottom-up communication phase (the Fig. 12
        / Fig. 13 bars), in ns."""
        return mean_bu_comm_ns(self.root_timings())


@dataclass
class Graph500Result(RootAverages):
    """Aggregate of one Graph500-style evaluation."""

    config: BFSConfig
    roots: np.ndarray
    per_root_teps: list[float] = field(default_factory=list)
    per_root_seconds: list[float] = field(default_factory=list)
    results: list[BFSResult] = field(default_factory=list)

    def root_timings(self) -> list[BfsTiming]:
        """Each root's run as priced by the engine."""
        return [res.timing for res in self.results]

    def teps_statistics(self) -> Summary:
        """Five-number summary of the per-root TEPS sample, as the
        Graph500 output specification reports."""
        return describe(self.per_root_teps)

    def graph500_output(self, graph: Graph) -> str:
        """The official Graph500 result block (the key/value lines the
        reference code prints), with times in simulated seconds."""
        times = np.asarray(self.per_root_seconds, dtype=np.float64)
        teps = np.asarray(self.per_root_teps, dtype=np.float64)
        scale = int(np.log2(graph.num_vertices))
        edgefactor = graph.meta.get(
            "edgefactor", round(graph.num_edges / graph.num_vertices)
        )

        def quartiles(arr: np.ndarray) -> tuple[float, float, float, float, float]:
            return (
                float(arr.min()),
                float(np.percentile(arr, 25)),
                float(np.median(arr)),
                float(np.percentile(arr, 75)),
                float(arr.max()),
            )

        t_min, t_q1, t_med, t_q3, t_max = quartiles(times)
        e_min, e_q1, e_med, e_q3, e_max = quartiles(teps)
        lines = [
            f"SCALE:                          {scale}",
            f"edgefactor:                     {edgefactor}",
            f"NBFS:                           {len(self.results)}",
            f"graph_generation:               (provided)",
            f"num_mpi_processes:              {self.results[0].counts.num_ranks}",
            f"min_time:                       {t_min:.6g}",
            f"firstquartile_time:             {t_q1:.6g}",
            f"median_time:                    {t_med:.6g}",
            f"thirdquartile_time:             {t_q3:.6g}",
            f"max_time:                       {t_max:.6g}",
            f"min_TEPS:                       {e_min:.6g}",
            f"firstquartile_TEPS:             {e_q1:.6g}",
            f"median_TEPS:                    {e_med:.6g}",
            f"thirdquartile_TEPS:             {e_q3:.6g}",
            f"max_TEPS:                       {e_max:.6g}",
            f"harmonic_mean_TEPS:             {self.harmonic_mean_teps:.6g}",
        ]
        return "\n".join(lines)


def run_graph500(
    graph: Graph,
    cluster: ClusterSpec,
    config: BFSConfig,
    num_roots: int = GRAPH500_DEFAULT_ROOTS,
    seed: int = 2,
    validate: bool = False,
    constants: CostConstants = CostConstants(),
    comm: CommConfig | None = None,
    prepared: PreparedGraph | None = None,
) -> Graph500Result:
    """Run the Graph500 protocol and aggregate the results.

    ``validate=True`` runs the full five-check Graph500 validator on every
    parent tree (slow for large graphs; the test suite exercises it).
    ``comm`` overrides the configuration's communication block.
    ``prepared`` reuses an already-built partition
    (:class:`~repro.core.prepared.PreparedGraph`) for all roots.
    """
    if comm is not None:
        config = replace(config, comm=comm)
    roots = sample_roots(graph, num_roots, seed=seed)
    engine = BFSEngine(
        graph, cluster, config, constants=constants, prepared=prepared
    )
    out = Graph500Result(config=config, roots=roots)
    for root in roots:
        res = engine.run(int(root))
        if validate:
            validate_parent_tree(graph, int(root), res.parent)
        out.results.append(res)
        out.per_root_teps.append(res.teps)
        out.per_root_seconds.append(res.seconds)
    return out
