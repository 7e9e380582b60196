"""Fig. 3 — BFS speedup on 1 core, 8 cores and 64 cores.

The paper's motivating measurement: with all accesses local, 8 cores are
~6.98x one core; but adding the other 7 sockets (64 cores, interleaved
memory) only brings ~2.77x more because of the NUMA effect — while socket
binding recovers ~6.31x (II.D.3).  We reproduce it by pricing the same
BFS computation on four machine shapes and comparing *computation* time
(communication is out of scope for this figure).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import BFSConfig
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    cached_rmat_graph,
)
from repro.machine.spec import ClusterSpec, NodeSpec, x7550_socket
from repro.model.predict import predict_graph500
from repro.mpi.mapping import BindingPolicy

EXPERIMENT_ID = "fig03"
TITLE = "Fig. 3: BFS speedup vs core count (NUMA effect)"
PAPER_SCALE = 28


def _single_node_cluster(sockets: int, cores: int) -> ClusterSpec:
    socket = dataclasses.replace(x7550_socket(), cores=cores)
    node = NodeSpec(sockets=sockets, socket=socket)
    return ClusterSpec(nodes=1, node=node)


def _compute_seconds(graph, cluster, config, settings) -> float:
    """Mean computation time (compute + stall, no communication) priced
    at the paper scale."""
    pred = predict_graph500(
        graph, cluster, config, PAPER_SCALE,
        num_roots=settings.num_roots, seed=settings.seed,
    )
    totals = []
    for timing in pred.root_timings():
        bd = timing.breakdown
        totals.append(
            (bd.td_compute + bd.bu_compute + bd.stall + bd.switch) / 1e9
        )
    return float(np.mean(totals))


def run(settings: ExperimentSettings | None = None) -> ExperimentResult:
    """Reproduce Fig. 3 (core-count speedups under NUMA)."""
    settings = settings or ExperimentSettings()
    scale = settings.measured_scale(PAPER_SCALE)
    graph = cached_rmat_graph(scale, settings.graph_seed)

    cases = {
        "1 core (local)": (
            _single_node_cluster(1, 1),
            BFSConfig(ppn=1, binding=BindingPolicy.BIND_TO_SOCKET),
        ),
        "8 cores (1 socket, local)": (
            _single_node_cluster(1, 8),
            BFSConfig(ppn=1, binding=BindingPolicy.BIND_TO_SOCKET),
        ),
        "64 cores (8 sockets, interleave)": (
            _single_node_cluster(8, 8),
            BFSConfig(ppn=1, binding=BindingPolicy.INTERLEAVE),
        ),
        "64 cores (8 sockets, bind-to-socket)": (
            _single_node_cluster(8, 8),
            BFSConfig.original_ppn8(),
        ),
    }
    seconds = {
        name: _compute_seconds(graph, cluster, cfg, settings)
        for name, (cluster, cfg) in cases.items()
    }
    t1 = seconds["1 core (local)"]
    t8 = seconds["8 cores (1 socket, local)"]
    t64i = seconds["64 cores (8 sockets, interleave)"]
    t64b = seconds["64 cores (8 sockets, bind-to-socket)"]

    res = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        headers=["configuration", "compute time [s]", "speedup vs 1 core"],
    )
    for name in cases:
        res.rows.append([name, seconds[name], t1 / seconds[name]])
    res.add_claim("8 cores vs 1 core", "6.98x", f"{t1 / t8:.2f}x")
    res.add_claim("64 cores (interleave) vs 8 cores", "2.77x", f"{t8 / t64i:.2f}x")
    res.add_claim("64 cores (bind) vs 8 cores", "6.31x", f"{t8 / t64b:.2f}x")
    return res
