"""Fig. 15 — weak scalability of all implementations (1 -> 16 nodes).

TEPS under weak scaling: the communication optimizations keep the curve
rising to 16 nodes where the unoptimized ppn=8 build flattens; the
16-node point of every curve is dented by the one weak-IB node, as the
paper observes.
"""

from __future__ import annotations

from repro.core.config import BFSConfig
from repro.experiments.common import (
    COMM_STACK,
    ExperimentResult,
    ExperimentSettings,
    evaluate_variant,
    paper_scale_for_nodes,
)
from repro.mpi.mapping import BindingPolicy

EXPERIMENT_ID = "fig15"
TITLE = "Fig. 15: weak scalability (TEPS, scales 28-32)"
NODE_COUNTS = (1, 2, 4, 8, 16)

VARIANTS = {
    "Original.ppn=1": BFSConfig(ppn=1, binding=BindingPolicy.INTERLEAVE),
    **COMM_STACK,
}


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """Reproduce Fig. 15 (weak scalability of all variants)."""
    settings = settings or ExperimentSettings()
    res = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        headers=["nodes", "scale"] + [f"{v} [GTEPS]" for v in VARIANTS],
    )
    series: dict[str, dict[int, float]] = {name: {} for name in VARIANTS}
    for nodes in NODE_COUNTS:
        row = [nodes, paper_scale_for_nodes(nodes)]
        for name, cfg in VARIANTS.items():
            teps = evaluate_variant(nodes, cfg, settings).harmonic_mean_teps
            series[name][nodes] = teps
            row.append(teps / 1e9)
        res.rows.append(row)

    opt = series["Par allgather"]
    orig = series["Original.ppn=8"]
    res.add_claim(
        "optimized scales better than Original.ppn=8 (8 nodes)",
        "higher TEPS growth",
        f"{opt[8] / orig[8]:.2f}x at 8 nodes",
    )
    res.add_claim(
        "optimized TEPS rises through 8 nodes",
        "monotone 1..8",
        "holds"
        if opt[1] < opt[2] < opt[4] < opt[8]
        else "VIOLATED",
    )
    scaling_8_16 = opt[16] / opt[8]
    res.add_claim(
        "8 -> 16 nodes scaling dented by the weak node",
        "inferior scalability at 16 nodes",
        f"{scaling_8_16:.2f}x (vs {opt[8]/opt[4]:.2f}x for 4 -> 8)",
    )
    return res
