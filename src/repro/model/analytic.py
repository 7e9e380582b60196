"""End-to-end analytic evaluation: level-profile model -> machine pricing.

This is the second prediction mode (besides count extrapolation from a
functional run): no graph is materialized at all, so it reaches scale 32+
in milliseconds.  The experiments use it where the functional ramp is too
compressed to show the effect under study (the Fig. 16 granularity sweep)
and to cross-validate the extrapolation mode (ablation benches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BFSConfig
from repro.core.counts import RunCounts
from repro.core.timing import (
    BfsTiming,
    CostConstants,
    StructureSizes,
    assemble,
    mean_bu_comm_ns,
)
from repro.graph.rmat import GRAPH500_EDGEFACTOR, RmatParams
from repro.machine.spec import ClusterSpec
from repro.model.levelprofile import synthesize_run_counts
from repro.mpi.mapping import ProcessMapping
from repro.mpi.simcomm import SimComm

__all__ = ["AnalyticResult", "analytic_graph500"]


@dataclass
class AnalyticResult:
    """Analytic-mode evaluation of one configuration at one scale."""

    config: BFSConfig
    scale: int
    counts: RunCounts
    timing: BfsTiming

    @property
    def seconds(self) -> float:
        """Simulated wall time of the traversal."""
        return self.timing.total_seconds

    @property
    def traversed_edges(self) -> int:
        """TEPS numerator implied by the analytic profile."""
        return self.counts.traversed_edges

    @property
    def teps(self) -> float:
        """Traversed edges per simulated second."""
        if self.seconds <= 0:
            return 0.0
        return self.traversed_edges / self.seconds

    def mean_bu_comm_per_level(self) -> float:
        """Average cost of one bottom-up communication phase (ns)."""
        return mean_bu_comm_ns([self.timing])


def analytic_graph500(
    cluster: ClusterSpec,
    config: BFSConfig,
    scale: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
    root_lambda: float | None = None,
    constants: CostConstants = CostConstants(),
) -> AnalyticResult:
    """Price one BFS at ``2**scale`` vertices without materializing it."""
    ppn = config.resolve_ppn(cluster)
    mapping = ProcessMapping(cluster, ppn, config.binding)
    comm = SimComm(cluster, mapping)
    counts, num_arcs = synthesize_run_counts(
        scale,
        config,
        mapping.num_ranks,
        edgefactor=edgefactor,
        params=params,
        root_lambda=root_lambda,
    )
    sizes = StructureSizes(
        num_vertices=counts.num_vertices,
        num_arcs=num_arcs,
        num_ranks=counts.num_ranks,
        granularity=config.granularity,
    )
    timing = assemble(counts, comm, config, sizes, constants)
    return AnalyticResult(
        config=config, scale=scale, counts=counts, timing=timing
    )
