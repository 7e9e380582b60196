"""Shared infrastructure for the experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.core.config import paper_variants
from repro.graph.rmat import rmat_graph
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec, paper_cluster
from repro.util.formatting import format_table

__all__ = [
    "COMM_STACK",
    "ExperimentSettings",
    "ExperimentResult",
    "cached_rmat_graph",
    "cluster_for",
    "paper_scale_for_nodes",
]

#: "Original.ppn=8" and the communication optimizations stacked on it, in
#: order (the bars of Figs. 13-15).
COMM_STACK = {
    name: config
    for name, config in paper_variants().items()
    if name not in ("Original.ppn=1", "Granularity")
}

# The paper's weak-scaling pairing: nodes -> graph scale (IV.C-D).
_PAPER_SCALES = {1: 28, 2: 29, 4: 30, 8: 31, 16: 32}


def paper_scale_for_nodes(nodes: int) -> int:
    """Graph scale the paper pairs with a node count (28 at 1 node up to
    32 at 16 nodes)."""
    if nodes not in _PAPER_SCALES:
        raise ValueError(f"the paper evaluates 1/2/4/8/16 nodes, not {nodes}")
    return _PAPER_SCALES[nodes]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``scale_offset`` is how far below the paper's graph scale the
    *functional* runs execute before being re-priced at paper scale
    (DESIGN.md §2); the default keeps every experiment comfortably inside
    laptop memory.  ``num_roots`` trades Graph500 fidelity (64 roots) for
    runtime.
    """

    scale_offset: int = 15
    num_roots: int = 3
    seed: int = 4
    graph_seed: int = 2
    include_weak_node: bool = True

    def measured_scale(self, paper_scale: int) -> int:
        """Functional-run scale for a paper scale (floor at 13)."""
        scale = paper_scale - self.scale_offset
        # 128 ranks need >= 2^13 vertices for word-aligned parts.
        return max(scale, 13)

    def quick(self) -> "ExperimentSettings":
        """Fastest settings (2 roots, deeper offset)."""
        return replace(self, num_roots=2, scale_offset=16)


@dataclass
class ExperimentResult:
    """Rows/series of one reproduced table or figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    # Key quantities for EXPERIMENTS.md: name -> (paper value, measured).
    claims: dict[str, tuple[str, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # Terminal bar charts of the figure's shape (rendered verbatim).
    charts: list[str] = field(default_factory=list)

    def add_claim(self, name: str, paper: str, measured: str) -> None:
        """Record one paper-vs-measured claim."""
        self.claims[name] = (paper, measured)

    def to_csv(self) -> str:
        """The rows as CSV text (headers first)."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_text(self) -> str:
        """Render the table, charts and claims as plain text."""
        parts = [format_table(self.headers, self.rows, title=self.title)]
        for chart in self.charts:
            parts.append("")
            parts.append(chart)
        if self.claims:
            parts.append("")
            parts.append("paper-vs-measured:")
            for name, (paper, measured) in self.claims.items():
                parts.append(f"  {name}: paper {paper} | measured {measured}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


@lru_cache(maxsize=8)
def cached_rmat_graph(scale: int, seed: int) -> Graph:
    """Graphs are reused across experiments within one process."""
    return rmat_graph(scale=scale, seed=seed)


def cluster_for(nodes: int, settings: ExperimentSettings) -> ClusterSpec:
    """The paper's platform at ``nodes`` nodes; the one degraded-IB node
    (IV.A) is present only in the full 16-node configuration, as in the
    paper."""
    weak = settings.include_weak_node and nodes == 16
    return paper_cluster(nodes=nodes, weak_node=weak)


def evaluate_variant(nodes: int, config, settings: ExperimentSettings):
    """Weak-scaling evaluation of one configuration at ``nodes`` nodes:
    functional runs at the reduced scale, priced at the paper's scale for
    that node count.  Returns a
    :class:`repro.model.predict.PredictedGraph500`."""
    from repro.model.predict import predict_graph500

    paper_scale = paper_scale_for_nodes(nodes)
    scale = settings.measured_scale(paper_scale)
    graph = cached_rmat_graph(scale, settings.graph_seed)
    cluster = cluster_for(nodes, settings)
    return predict_graph500(
        graph,
        cluster,
        config,
        target_scale=paper_scale,
        num_roots=settings.num_roots,
        seed=settings.seed,
    )
