"""Analytic BFS level-profile model for R-MAT graphs at arbitrary scale.

Small functional runs cannot exhibit every paper-scale phenomenon: a
scale-14 R-MAT frontier jumps from a handful of vertices straight to ~10%
of the graph, while a scale-32 ramp passes through intermediate levels
(densities around 0.1-1%) — and it is exactly at those densities that the
``in_queue_summary`` filter and its granularity trade-off (Fig. 16)
operate.  This module therefore computes the level structure analytically
and synthesizes a :class:`~repro.core.counts.RunCounts` that the standard
timing assembler can price.

Two ingredients, both exact for R-MAT up to configuration-model mixing:

* **Degree distribution.**  An endpoint of a random R-MAT edge lands on a
  vertex whose id has ``z`` zero bits with probability
  ``(a+b)^z (c+d)^(scale-z)`` per bit pattern; there are ``C(scale, z)``
  such vertices.  Degrees within class ``z`` are Poisson with rate
  ``2 * M * (a+b)^z * (c+d)^(scale-z)``.  This reproduces the heavy tail
  and the isolated-vertex mass at any scale with ``scale + 1`` classes.

* **Level recursion.**  On the configuration model, an undiscovered
  vertex of class ``z`` is discovered by the current frontier with
  probability ``1 - exp(-lambda_z * q)`` where ``q`` is the fraction of
  edge endpoints lying in the frontier.  Iterating from the root yields
  frontier vertex/edge fractions per level; the hybrid alpha/beta rule is
  applied to the analytic quantities to decide directions, mirroring the
  engine.

Per-level bottom-up expectations follow in closed form (early-exit scan
of a Poisson-degree vertex against an independent frontier):

* examined edges per candidate: ``(1 - exp(-lambda * q)) / q``;
* summary filtering: an examined non-hit edge reads ``in_queue`` only if
  its summary block is non-empty, probability ``1 - exp(-(g-1) * p)``
  with ``p`` the vertex-uniform frontier density and ``g`` the
  granularity — the Fig. 16 mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitmap import summary_words_for
from repro.core.config import BFSConfig, TraversalMode
from repro.core.counts import Direction, RunCounts
from repro.errors import ConfigError
from repro.graph.rmat import GRAPH500_EDGEFACTOR, RmatParams
from repro.util import bitops

__all__ = [
    "DegreeClasses",
    "rmat_degree_classes",
    "typical_root_lambda",
    "AnalyticLevel",
    "simulate_level_profile",
    "synthesize_run_counts",
]


@dataclass(frozen=True)
class DegreeClasses:
    """R-MAT degree mixture: class ``z`` has ``count[z]`` vertices whose
    degrees are Poisson with rate ``lam[z]``."""

    scale: int
    edgefactor: int
    count: np.ndarray  # float64, may exceed 2**53 fractionally — fine
    lam: np.ndarray

    @property
    def num_vertices(self) -> float:
        """Total vertices at this scale."""
        return float(2**self.scale)

    @property
    def num_endpoints(self) -> float:
        """Total edge endpoints (2 * M raw edges)."""
        return 2.0 * self.edgefactor * self.num_vertices

    def mean_degree(self) -> float:
        """Mean degree over all vertices (isolated included)."""
        return float((self.count * self.lam).sum() / self.num_vertices)

    def isolated_fraction(self) -> float:
        """Expected share of degree-0 vertices."""
        return float((self.count * np.exp(-self.lam)).sum() / self.num_vertices)


def rmat_degree_classes(
    scale: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
) -> DegreeClasses:
    """Closed-form degree mixture of an R-MAT graph at ``scale``."""
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    row_heavy = params.a + params.b  # marginal probability of a 0 row bit
    row_light = params.c + params.d
    z = np.arange(scale + 1, dtype=np.float64)
    # log C(scale, z) via lgamma for numerical stability at scale 32+.
    log_comb = (
        math.lgamma(scale + 1)
        - np.array([math.lgamma(v + 1) for v in z])
        - np.array([math.lgamma(scale - v + 1) for v in z])
    )
    count = np.exp(log_comb)
    m = edgefactor * (2.0**scale)
    log_rate = (
        math.log(2.0 * m)
        + z * math.log(row_heavy)
        + (scale - z) * math.log(row_light)
    )
    lam = np.exp(log_rate)
    return DegreeClasses(
        scale=scale, edgefactor=edgefactor, count=count, lam=lam
    )


@dataclass
class AnalyticLevel:
    """One level of the analytic profile (all quantities are absolute
    expected counts for the whole graph)."""

    level: int
    direction: str
    frontier_vertices: float
    frontier_edge_endpoints: float  # edge endpoints incident to the frontier
    candidates: float  # BU: undiscovered, degree > 0 vertices scanned
    examined_edges: float
    discovered: float
    frontier_density: float  # frontier_vertices / N (vertex-uniform)
    hit_fraction: float  # q: P(random edge endpoint is in the frontier)


def typical_root_lambda(classes: DegreeClasses) -> float:
    """Degree of the typical Graph500 root.

    Roots are sampled uniformly over degree >= 1 vertices, so most have
    near-median degree (around the edgefactor), not the degree-weighted
    mean which the hubs dominate.  The choice fixes where the hybrid
    switch lands in the ramp, and with it the first bottom-up frontier
    density that drives the summary-granularity trade-off (Fig. 16)."""
    return float(classes.edgefactor)


def simulate_level_profile(
    classes: DegreeClasses,
    config: BFSConfig,
    root_lambda: float | None = None,
    max_levels: int = 64,
) -> list[AnalyticLevel]:
    """Run the epidemic level recursion and the hybrid direction policy."""
    n = classes.num_vertices
    endpoints = classes.num_endpoints
    if root_lambda is None:
        root_lambda = typical_root_lambda(classes)

    undiscovered = classes.count.astype(np.float64).copy()
    # Frontier state: expected frontier vertices per class.  The root is
    # one vertex of degree ~root_lambda; approximate its class mix by the
    # single virtual vertex with rate root_lambda.
    frontier = np.zeros_like(undiscovered)
    frontier_vertices = 1.0
    frontier_endpoints = root_lambda
    # Remove the root from its (approximate) class: negligible at scale.

    levels: list[AnalyticLevel] = []
    direction = Direction.TOP_DOWN
    finished_bottom_up = False
    unexplored_endpoints = endpoints

    for level in range(max_levels):
        if frontier_vertices < 0.5:
            break
        # Hybrid direction rule on the analytic quantities (mirrors
        # repro.core.hybrid.DirectionPolicy).
        if config.mode is TraversalMode.TOP_DOWN:
            direction = Direction.TOP_DOWN
        elif config.mode is TraversalMode.BOTTOM_UP:
            direction = Direction.BOTTOM_UP
        elif direction == Direction.TOP_DOWN:
            if (
                not finished_bottom_up
                and frontier_endpoints > unexplored_endpoints / config.alpha
            ):
                direction = Direction.BOTTOM_UP
        else:
            if frontier_vertices < n / config.beta:
                direction = Direction.TOP_DOWN
                finished_bottom_up = True

        q = min(1.0, frontier_endpoints / endpoints)
        p = min(1.0, frontier_vertices / n)

        # Discovery probabilities per class.
        discover_prob = 1.0 - np.exp(-classes.lam * q)
        new_frontier = undiscovered * discover_prob
        discovered = float(new_frontier.sum())

        if direction == Direction.TOP_DOWN:
            candidates = 0.0
            examined = frontier_endpoints
        else:
            nonisolated = undiscovered * (1.0 - np.exp(-classes.lam))
            candidates = float(nonisolated.sum())
            if q > 0:
                examined = float(
                    (undiscovered * (1.0 - np.exp(-classes.lam * q))).sum() / q
                )
            else:
                examined = 0.0

        levels.append(
            AnalyticLevel(
                level=level,
                direction=direction,
                frontier_vertices=frontier_vertices,
                frontier_edge_endpoints=frontier_endpoints,
                candidates=candidates,
                examined_edges=examined,
                discovered=discovered,
                frontier_density=p,
                hit_fraction=q,
            )
        )

        undiscovered = undiscovered - new_frontier
        frontier = new_frontier
        frontier_vertices = discovered
        frontier_endpoints = float((new_frontier * classes.lam).sum())
        unexplored_endpoints = float((undiscovered * classes.lam).sum())

    return levels


def _summary_pass_fraction(p: float, granularity: int) -> float:
    """Probability that an examined *non-hit* edge still reads in_queue:
    its summary block (g - 1 other positions at vertex-uniform frontier
    density p) is non-empty."""
    return 1.0 - math.exp(-(granularity - 1) * p)


def synthesize_run_counts(
    scale: int,
    config: BFSConfig,
    num_ranks: int,
    edgefactor: int = GRAPH500_EDGEFACTOR,
    params: RmatParams = RmatParams(),
    root_lambda: float | None = None,
) -> tuple[RunCounts, int]:
    """Build a priceable :class:`RunCounts` from the analytic profile.

    Returns ``(counts, num_directed_arcs)``; counts are balanced across
    ranks (the analytic model has no sampling noise, so stall is zero by
    construction — absolute-scale runs are well balanced, see the
    1/sqrt(size) argument in :meth:`RunCounts.scaled`).
    """
    classes = rmat_degree_classes(scale, edgefactor, params)
    profile = simulate_level_profile(classes, config, root_lambda)
    n = int(2**scale)
    # Deduplicated undirected edges ~ raw minus self-loop/duplicate mass;
    # for Graph500 parameters the reduction is small — keep raw counts, as
    # the paper quotes raw edge counts (64 G at scale 32) too.
    num_arcs = 2 * edgefactor * n

    rows = []
    summary_words = summary_words_for(n, config.granularity)
    inq_part_words = bitops.words_for_bits(n) / num_ranks

    def spread(total: float) -> np.ndarray:
        return np.full(num_ranks, max(0.0, total) / num_ranks).astype(np.int64)

    prev = None
    for lvl in profile:
        row = dict(
            direction=lvl.direction,
            # Representation switches, as the engine marks them.
            switched=prev is not None and prev != lvl.direction,
            allreduces=3,
            frontier_local=spread(lvl.frontier_vertices),
            discovered=spread(lvl.discovered),
            examined_edges=spread(lvl.examined_edges),
        )
        prev = lvl.direction
        if lvl.direction == Direction.TOP_DOWN:
            pair_bytes = 16.0 * lvl.discovered
            per_pair = pair_bytes / max(1, num_ranks * num_ranks)
            row["td_send_bytes"] = np.full(
                (num_ranks, num_ranks), per_pair
            ).astype(np.int64)
        else:
            row["candidates"] = spread(lvl.candidates)
            if config.use_summary:
                hits = lvl.discovered
                misses = max(0.0, lvl.examined_edges - hits)
                pass_frac = _summary_pass_fraction(
                    lvl.frontier_density, config.granularity
                )
                reads = hits + misses * pass_frac
            else:
                reads = lvl.examined_edges
            row["inqueue_reads"] = spread(reads)
            row["inq_part_words"] = inq_part_words
            if config.use_summary:
                row["summary_part_words"] = summary_words / num_ranks
        rows.append(row)

    reached = sum(lvl.discovered for lvl in profile)
    reached_endpoints = sum(
        lvl.frontier_edge_endpoints for lvl in profile
    )
    counts = RunCounts.from_rows(n, num_ranks, rows)
    counts.visited_vertices = int(reached)
    counts.traversed_edges = int(min(num_arcs // 2, reached_endpoints / 2))
    return counts, num_arcs
