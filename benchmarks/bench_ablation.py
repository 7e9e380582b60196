"""Ablation benches for the design choices DESIGN.md §5 calls out.

Each test prints a small table exploring one knob around the paper's
chosen design point:

* hybrid switch thresholds (alpha / beta);
* the allgather algorithm menu, including the multi-leader scheme of
  Kandalla et al. that the paper argues against (Section III.B);
* the number of parallel-allgather subgroups (Fig. 7 generalized);
* shared vs private ``in_queue`` effect on the *computation* phase;
* extrapolation-mode fidelity (predicting a directly-simulatable scale);
* a hugepages what-if (TLB penalty removed);
* the degree-balanced partition extension.
"""

from __future__ import annotations

import dataclasses as dc

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine
from repro.graph import rmat_graph
from repro.graph.degree import sample_roots
from repro.machine import paper_cluster
from repro.machine.spec import MB
from repro.model import extrapolate_result
from repro.model.analytic import analytic_graph500
from repro.mpi import (
    AllgatherAlgorithm,
    ProcessMapping,
    SimComm,
    allgather_time,
)
from repro.util.formatting import format_table, format_time_ns


@pytest.fixture(scope="module")
def cluster16():
    return paper_cluster(nodes=16)


@pytest.fixture(scope="module")
def comm16(cluster16):
    return SimComm(cluster16, ProcessMapping(cluster16, ppn=8))


def test_alpha_beta_sweep(benchmark, cluster16):
    """The Beamer thresholds: TEPS across the (alpha, beta) grid; the
    default (14, 24) should sit near the plateau."""

    def sweep():
        rows = []
        for alpha in (2, 8, 14, 32, 128):
            for beta in (8, 24, 96):
                cfg = dc.replace(
                    BFSConfig.par_allgather_variant(), alpha=alpha, beta=beta
                )
                teps = analytic_graph500(cluster16, cfg, 32).teps
                rows.append([alpha, beta, teps / 1e9])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(["alpha", "beta", "GTEPS"], rows,
                       title="ablation: hybrid switch thresholds"))
    default = next(r[2] for r in rows if r[0] == 14 and r[1] == 24)
    best = max(r[2] for r in rows)
    assert default > 0.6 * best  # the paper's choice is near-optimal


def test_allgather_algorithm_menu(benchmark, comm16):
    """All algorithms on the scale-32 in_queue payload; the paper's
    parallel-shared must beat multi-leader (which moves ppn x the data)."""
    total = 512 * MB
    part = total / comm16.num_ranks
    algos = [
        AllgatherAlgorithm.RING,
        AllgatherAlgorithm.RECURSIVE_DOUBLING,
        AllgatherAlgorithm.LEADER,
        AllgatherAlgorithm.LEADER_OVERLAPPED,
        AllgatherAlgorithm.SHARED_IN,
        AllgatherAlgorithm.SHARED_ALL,
        AllgatherAlgorithm.MULTI_LEADER,
        AllgatherAlgorithm.PARALLEL_SHARED,
    ]

    def sweep():
        return {a: allgather_time(comm16, a, part, total)[0] for a in algos}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["algorithm", "time"],
        [[a.value, format_time_ns(t)] for a, t in times.items()],
        title="ablation: allgather algorithms, 512 MB on 128 ranks",
    ))
    assert times[AllgatherAlgorithm.PARALLEL_SHARED] < times[
        AllgatherAlgorithm.MULTI_LEADER
    ]
    assert times[AllgatherAlgorithm.PARALLEL_SHARED] == min(times.values())


def test_parallel_subgroup_count(benchmark, comm16):
    """Fig. 7 generalized: inter-node time vs subgroup count follows the
    Fig. 4 concurrency curve and saturates at 8."""
    part = 512 * MB / comm16.num_ranks

    def sweep():
        return {
            s: allgather_time(
                comm16, AllgatherAlgorithm.PARALLEL_SHARED, part, subgroups=s
            )[1]["inter"]
            for s in (1, 2, 4, 8)
        }

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["subgroups", "inter-node time"],
        [[s, format_time_ns(t)] for s, t in times.items()],
        title="ablation: parallel-allgather subgroups",
    ))
    ordered = [times[s] for s in (1, 2, 4, 8)]
    assert ordered == sorted(ordered, reverse=True)
    assert 1.5 < times[1] / times[8] < 2.5  # Fig. 4: ~2x


def test_sharing_effect_on_computation(benchmark):
    """Sharing in_queue slows the *computation* slightly (cross-socket
    reads) while slashing communication — the paper's II.D trade-off."""
    graph = rmat_graph(scale=14, seed=2)
    cluster = paper_cluster(nodes=8)
    root = int(sample_roots(graph, 1, seed=4)[0])

    def measure():
        out = {}
        for cfg in (BFSConfig.original_ppn8(), BFSConfig.share_in_queue_variant()):
            engine = BFSEngine(graph, cluster, cfg)
            pred = extrapolate_result(engine.run(root), engine, 31)
            out[cfg.label] = pred.timing.breakdown
        return out

    bds = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    rows = [
        [name, bd.bu_compute / 1e6, bd.bu_comm / 1e6]
        for name, bd in bds.items()
    ]
    print(format_table(
        ["variant", "bu compute [ms]", "bu comm [ms]"],
        rows,
        title="ablation: sharing in_queue, computation vs communication",
    ))
    orig, shared = bds["Original.ppn=8"], bds["Share in_queue"]
    assert shared.bu_comm < orig.bu_comm
    comp_penalty = shared.bu_compute / orig.bu_compute
    assert comp_penalty < 1.8  # sharing must not wreck computation
    assert (shared.bu_compute + shared.bu_comm) < (
        orig.bu_compute + orig.bu_comm
    )


def test_extrapolation_fidelity(benchmark):
    """Cross-validation of the count-extrapolation mode: predict scale 16
    from a scale-13 run and compare with the direct scale-16 simulation."""
    cluster = paper_cluster(nodes=4)

    def measure():
        cfg = BFSConfig.original_ppn8()
        g16 = rmat_graph(scale=16, seed=2)
        root16 = int(sample_roots(g16, 1, seed=4)[0])
        direct = BFSEngine(g16, cluster, cfg).run(root16).seconds

        g13 = rmat_graph(scale=13, seed=2)
        root13 = int(sample_roots(g13, 1, seed=4)[0])
        engine13 = BFSEngine(g13, cluster, cfg)
        predicted = extrapolate_result(
            engine13.run(root13), engine13, 16
        ).seconds
        return direct, predicted

    direct, predicted = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = predicted / direct
    print(f"\nextrapolation fidelity: direct {direct*1e3:.3f} ms, "
          f"predicted {predicted*1e3:.3f} ms (ratio {ratio:.2f})")
    assert 0.3 < ratio < 3.0


def test_hugepages_what_if(benchmark):
    """Removing the TLB penalty (2 MB pages) speeds up the computation —
    a what-if the machine model makes one-line cheap."""
    base = paper_cluster(nodes=16)
    sock = dc.replace(base.node.socket, tlb_penalty_ns=0.0)
    huge = dc.replace(base, node=dc.replace(base.node, socket=sock))

    def measure():
        cfg = BFSConfig.par_allgather_variant()
        return (
            analytic_graph500(base, cfg, 32).teps,
            analytic_graph500(huge, cfg, 32).teps,
        )

    teps_4k, teps_2m = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nhugepages what-if: 4K pages {teps_4k/1e9:.1f} GTEPS, "
          f"2M pages {teps_2m/1e9:.1f} GTEPS (+{(teps_2m/teps_4k-1)*100:.0f}%)")
    assert teps_2m > teps_4k


def test_degree_balanced_partition(benchmark):
    """Edge-balanced static partitioning on a skewed (non-permuted) R-MAT
    graph — a documented *negative* result.

    Balancing total edge mass does not balance *per-level* work: the hub
    region is exhausted in the first bottom-up level, after which the
    edge-light ranks idle.  This is why the reference code (and the
    paper) keep uniform blocks plus Graph500 label permutation, and fight
    the remaining imbalance with OpenMP dynamic scheduling inside each
    rank (IV.C).  The bench asserts correctness and total-time sanity,
    not improvement."""
    graph = rmat_graph(scale=14, seed=2, permute_labels=False)
    cluster = paper_cluster(nodes=4)
    root = int(sample_roots(graph, 1, seed=4)[0])

    def measure():
        out = {}
        for balanced in (False, True):
            cfg = dc.replace(BFSConfig.original_ppn8(), degree_balanced=balanced)
            engine = BFSEngine(graph, cluster, cfg)
            pred = extrapolate_result(engine.run(root), engine, 30)
            out[balanced] = pred.timing.breakdown
        return out

    bds = benchmark.pedantic(measure, rounds=1, iterations=1)
    stall_block = bds[False].stall
    stall_balanced = bds[True].stall
    print(f"\ndegree-balanced partition (non-permuted graph): stall "
          f"{stall_block/1e6:.2f} ms -> {stall_balanced/1e6:.2f} ms "
          f"(static edge balance does not fix per-level imbalance)")
    assert bds[True].total < 3 * bds[False].total
    assert bds[False].total < 3 * bds[True].total


def test_omp_scheduling(benchmark):
    """The paper's IV.C remark: the OpenMP dynamic scheduler avoids
    intra-rank load imbalance.  Static chunking prices the skew penalty."""
    graph = rmat_graph(scale=14, seed=2)
    cluster = paper_cluster(nodes=4)
    root = int(sample_roots(graph, 1, seed=4)[0])

    def measure():
        out = {}
        for dynamic in (True, False):
            cfg = dc.replace(BFSConfig.original_ppn8(), omp_dynamic=dynamic)
            engine = BFSEngine(graph, cluster, cfg)
            out[dynamic] = extrapolate_result(engine.run(root), engine, 30)
        return out

    preds = benchmark.pedantic(measure, rounds=1, iterations=1)
    dyn, sta = preds[True].seconds, preds[False].seconds
    print(f"\nOpenMP scheduling: dynamic {dyn:.3f} s, static {sta:.3f} s "
          f"({sta / dyn:.2f}x slower without dynamic chunks)")
    assert sta > dyn
