#!/usr/bin/env python3
"""Degrees-of-separation analysis on a social-network-like graph.

The workload the paper's introduction motivates: BFS as the building
block of graph analytics.  This example uses the library's hybrid BFS to
measure, on an R-MAT "social network":

* the hop-distance distribution from a set of seed users (the
  small-world effect),
* the reachable fraction of the network,
* how much simulated cluster time the analysis costs on NUMA hardware
  with and without the paper's optimizations.

Usage::

    python examples/social_network_analysis.py [scale]
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from repro import BFSConfig, BFSEngine, paper_cluster, rmat_graph
from repro.core.validate import compute_levels
from repro.graph.degree import degree_statistics, sample_roots
from repro.util import format_table, format_time_ns


def main(scale: int = 14) -> None:
    graph = rmat_graph(scale=scale, seed=42)
    stats = degree_statistics(graph)
    print("== the network ==")
    print(f"  users              : {stats.num_vertices:,}")
    print(f"  friendships        : {stats.num_edges:,}")
    print(f"  most-connected user: {stats.max_degree:,} friends")
    print(f"  inactive accounts  : {stats.isolated_fraction * 100:.0f}% "
          f"(degree 0)")
    print()

    cluster = paper_cluster(nodes=4)
    seeds = sample_roots(graph, 4, seed=11)

    engine = BFSEngine(graph, cluster, BFSConfig.granularity_variant(256))
    hop_counter: Counter[int] = Counter()
    reachable = []
    sim_seconds = 0.0
    for seed in seeds:
        result = engine.run(int(seed))
        sim_seconds += result.seconds
        levels = compute_levels(graph, int(seed), result.parent)
        reached = levels[levels >= 0]
        reachable.append(reached.size / graph.num_vertices)
        hop_counter.update(Counter(reached.tolist()))

    print("== degrees of separation (from 4 seed users) ==")
    total = sum(hop_counter.values())
    rows = []
    cumulative = 0.0
    for hop in sorted(hop_counter):
        share = hop_counter[hop] / total
        cumulative += share
        rows.append([hop, hop_counter[hop], f"{share*100:.1f}%",
                     f"{cumulative*100:.1f}%"])
    print(format_table(["hops", "users", "share", "cumulative"], rows))
    within4 = sum(hop_counter[h] for h in hop_counter if h <= 4) / total
    print(f"\n  {within4*100:.0f}% of reachable users are within 4 hops "
          f"(small-world)")
    print(f"  reachable fraction of the network: "
          f"{np.mean(reachable)*100:.0f}%")
    print()

    print("== what this analysis would cost at production scale ==")
    # Price the same traversals at a billion-user scale (2^30) via the
    # extrapolation mode.
    from repro.model import extrapolate_result

    target = 30
    for config in (BFSConfig.original_ppn1(), BFSConfig.granularity_variant(256)):
        eng = BFSEngine(graph, cluster, config)
        secs = sum(
            extrapolate_result(eng.run(int(s)), eng, target).seconds
            for s in seeds
        )
        label = "unoptimized (ppn=1)" if config.ppn == 1 else "paper-optimized"
        print(f"  {label:20s}: {format_time_ns(secs * 1e9)} simulated for "
              f"4 traversals of a {2**target:,}-user network")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 14)
