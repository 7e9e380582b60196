"""Sensitivity analysis of the calibration constants.

DESIGN.md §6 lists the handful of machine constants that are not given
by the paper and were calibrated once against its headline ratios.  This
module quantifies how much each of the paper's qualitative claims moves
when one constant is perturbed — the standard robustness check for a
calibrated simulator.  ``benchmarks/bench_sensitivity.py`` runs it and
asserts that the claims survive ±50% perturbations.
"""

from __future__ import annotations

import dataclasses as dc
from dataclasses import dataclass
from typing import Callable

from repro.core.config import paper_variants
from repro.errors import ConfigError
from repro.machine.spec import ClusterSpec, paper_cluster
from repro.model.analytic import analytic_graph500

__all__ = [
    "CALIBRATION_CONSTANTS",
    "ClaimOutcome",
    "perturb",
    "evaluate_claims",
    "sensitivity_sweep",
]

# name -> (getter description, setter producing a perturbed cluster)
def _set_socket(cluster: ClusterSpec, **kw) -> ClusterSpec:
    node = cluster.node
    return dc.replace(
        cluster, node=dc.replace(node, socket=dc.replace(node.socket, **kw))
    )


def _set_qpi(cluster: ClusterSpec, **kw) -> ClusterSpec:
    node = cluster.node
    return dc.replace(
        cluster, node=dc.replace(node, qpi=dc.replace(node.qpi, **kw))
    )


CALIBRATION_CONSTANTS: dict[str, Callable[[ClusterSpec, float], ClusterSpec]] = {
    "dram_latency_ns": lambda c, f: _set_socket(
        c, dram_latency_ns=c.node.socket.dram_latency_ns * f
    ),
    "tlb_penalty_ns": lambda c, f: _set_socket(
        c, tlb_penalty_ns=c.node.socket.tlb_penalty_ns * f
    ),
    "cache_usable_fraction": lambda c, f: _set_socket(
        c, cache_usable_fraction=min(1.0, c.node.socket.cache_usable_fraction * f)
    ),
    "hop_latency_ns": lambda c, f: _set_qpi(
        c, hop_latency_ns=c.node.qpi.hop_latency_ns * f
    ),
    "congestion_per_socket": lambda c, f: _set_qpi(
        c, congestion_per_socket=c.node.qpi.congestion_per_socket * f
    ),
    "mlp": lambda c, f: _set_socket(c, mlp=max(0.5, c.node.socket.mlp * f)),
}


def perturb(cluster: ClusterSpec, constant: str, factor: float) -> ClusterSpec:
    """The cluster with one calibration constant multiplied by ``factor``."""
    try:
        setter = CALIBRATION_CONSTANTS[constant]
    except KeyError:
        known = ", ".join(sorted(CALIBRATION_CONSTANTS))
        raise ConfigError(
            f"unknown calibration constant {constant!r}; known: {known}"
        ) from None
    if factor <= 0:
        raise ConfigError("perturbation factor must be positive")
    return setter(cluster, factor)


@dataclass(frozen=True)
class ClaimOutcome:
    """One qualitative paper claim evaluated on one machine."""

    numa_speedup: float  # ppn=8 over ppn=1 (paper: 1.53x)
    comm_chain_monotone: bool  # each optimization reduces total time
    overall_speedup: float  # full stack over ppn=1 (paper: 2.44x)

    @property
    def claims_hold(self) -> bool:
        """True when every qualitative paper claim holds."""
        return (
            self.numa_speedup > 1.0
            and self.comm_chain_monotone
            and self.overall_speedup > self.numa_speedup
        )


def evaluate_claims(cluster: ClusterSpec, scale: int = 32) -> ClaimOutcome:
    """The paper's headline claims on one machine (analytic mode)."""
    chain = list(paper_variants(best_granularity=256).values())
    seconds = [analytic_graph500(cluster, cfg, scale).seconds for cfg in chain]
    monotone = all(a >= b * 0.999 for a, b in zip(seconds[1:], seconds[2:]))
    return ClaimOutcome(
        numa_speedup=seconds[0] / seconds[1],
        comm_chain_monotone=monotone,
        overall_speedup=seconds[0] / seconds[-1],
    )


def sensitivity_sweep(
    factors: tuple[float, ...] = (0.5, 1.0, 1.5),
    scale: int = 32,
    nodes: int = 16,
) -> dict[str, dict[float, ClaimOutcome]]:
    """Evaluate the claims under per-constant perturbations."""
    base = paper_cluster(nodes=nodes)
    out: dict[str, dict[float, ClaimOutcome]] = {}
    for constant in CALIBRATION_CONSTANTS:
        out[constant] = {}
        for factor in factors:
            cluster = perturb(base, constant, factor)
            out[constant][factor] = evaluate_claims(cluster, scale)
    return out
