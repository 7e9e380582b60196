"""Fig. 14 — proportion of bottom-up communication in total time
(1 -> 8 nodes, no 16-node column because of the weak node).

The scalability argument: the optimizations cut the 8-node proportion
from ~54% to ~18%, with the remaining non-BU categories (top-down, stall,
switch) staying below ~20% even in the optimized build.
"""

from __future__ import annotations

from repro.experiments.common import (
    COMM_STACK,
    ExperimentResult,
    ExperimentSettings,
    evaluate_variant,
    paper_scale_for_nodes,
)

EXPERIMENT_ID = "fig14"
TITLE = "Fig. 14: bottom-up communication proportion per optimization"
NODE_COUNTS = (1, 2, 4, 8)

VARIANTS = COMM_STACK


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """Reproduce Fig. 14 (comm proportion per optimization)."""
    settings = settings or ExperimentSettings()
    res = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        headers=["nodes", "scale"] + list(VARIANTS),
    )
    props: dict[int, dict[str, float]] = {}
    misc_fraction_8 = None
    for nodes in NODE_COUNTS:
        row: dict[str, float] = {}
        for name, cfg in VARIANTS.items():
            pred = evaluate_variant(nodes, cfg, settings)
            bd = pred.mean_breakdown()
            row[name] = bd.comm_fraction
            if nodes == 8 and name == "Par allgather":
                misc_fraction_8 = (
                    bd.td_compute + bd.td_comm + bd.switch + bd.stall
                ) / bd.total
        props[nodes] = row
        res.rows.append(
            [nodes, paper_scale_for_nodes(nodes)]
            + [f"{row[name] * 100:.0f}%" for name in VARIANTS]
        )
    res.add_claim(
        "proportion at 8 nodes, unoptimized -> all optimizations",
        "54% -> 18%",
        f"{props[8]['Original.ppn=8'] * 100:.0f}% -> "
        f"{props[8]['Par allgather'] * 100:.0f}%",
    )
    if misc_fraction_8 is not None:
        res.add_claim(
            "top-down + stall + switch stay small (optimized, 8 nodes)",
            "< 20%",
            f"{misc_fraction_8 * 100:.0f}%",
        )
    return res
