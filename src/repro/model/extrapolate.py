"""Re-pricing of a measured BFS run at a larger target scale."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counts import RunCounts
from repro.core.engine import BFSEngine, BFSResult
from repro.core.timing import BfsTiming, StructureSizes, assemble
from repro.errors import ConfigError

__all__ = ["ScaledPrediction", "scale_factor", "extrapolate_result"]


def scale_factor(actual_vertices: int, target_scale: int) -> float:
    """Multiplier taking a graph of ``actual_vertices`` to ``2**target``."""
    if actual_vertices <= 0:
        raise ConfigError("actual graph has no vertices")
    if target_scale < 0 or target_scale > 48:
        raise ConfigError(f"unreasonable target scale {target_scale}")
    factor = (1 << target_scale) / actual_vertices
    if factor < 1.0:
        raise ConfigError(
            f"target scale {target_scale} is smaller than the measured "
            f"graph ({actual_vertices} vertices); extrapolation only "
            f"scales up"
        )
    return factor


@dataclass
class ScaledPrediction:
    """One run priced at a paper scale."""

    target_scale: int
    factor: float
    counts: RunCounts
    timing: BfsTiming
    traversed_edges: int

    @property
    def seconds(self) -> float:
        """Simulated wall time at the target scale."""
        return self.timing.total_seconds

    @property
    def teps(self) -> float:
        """Traversed edges per simulated second at the target scale."""
        if self.seconds <= 0:
            return 0.0
        return self.traversed_edges / self.seconds


def extrapolate_result(
    result: BFSResult | RunCounts, engine: BFSEngine, target_scale: int
) -> ScaledPrediction:
    """Price a run (or just its counts) at graph scale ``target_scale``.

    The engine provides the communicator, configuration and cost
    constants to price with; only the counts and the structure sizes
    change.  The measured counts are never written.
    """
    counts = result.counts if isinstance(result, BFSResult) else result
    factor = scale_factor(counts.num_vertices, target_scale)
    scaled_counts = counts.scaled(factor)
    sizes = StructureSizes(
        num_vertices=scaled_counts.num_vertices,
        num_arcs=int(round(engine.graph.num_directed_edges * factor)),
        num_ranks=scaled_counts.num_ranks,
        granularity=engine.config.granularity,
    )
    timing = assemble(
        scaled_counts, engine.comm, engine.config, sizes, engine.constants
    )
    return ScaledPrediction(
        target_scale=target_scale,
        factor=factor,
        counts=scaled_counts,
        timing=timing,
        traversed_edges=scaled_counts.traversed_edges,
    )
