"""Tests for BFSConfig presets/validation, count scaling and the timing
assembler."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    BFSConfig,
    BFSEngine,
    CommConfig,
    RunCounts,
    StructureSizes,
    TraversalMode,
    assemble,
    paper_variants,
)
from repro.core.counts import LevelCounts
from repro.errors import ConfigError, SimulationError
from repro.graph import rmat_graph
from repro.machine import Placement, paper_cluster
from repro.mpi import AllgatherAlgorithm, BindingPolicy, ProcessMapping, SimComm


class TestBFSConfig:
    def test_paper_variant_chain(self):
        variants = paper_variants()
        assert list(variants) == [
            "Original.ppn=1",
            "Original.ppn=8",
            "Share in_queue",
            "Share all",
            "Par allgather",
            "Granularity",
        ]
        assert variants["Original.ppn=1"].ppn == 1
        assert variants["Share in_queue"].shares_in_queue
        assert not variants["Share in_queue"].share_all
        assert variants["Par allgather"].parallel_allgather
        assert variants["Granularity"].granularity == 256

    def test_algorithm_selection(self):
        v = paper_variants()
        assert (
            v["Original.ppn=8"].in_queue_algorithm()
            is AllgatherAlgorithm.DEFAULT
        )
        assert (
            v["Share in_queue"].in_queue_algorithm()
            is AllgatherAlgorithm.SHARED_IN
        )
        assert (
            v["Share all"].in_queue_algorithm()
            is AllgatherAlgorithm.SHARED_ALL
        )
        assert (
            v["Par allgather"].in_queue_algorithm()
            is AllgatherAlgorithm.PARALLEL_SHARED
        )
        # Only 'Share all' shares the summary; parallelization is in_queue-only.
        assert (
            v["Par allgather"].summary_algorithm()
            is AllgatherAlgorithm.SHARED_ALL
        )
        assert (
            v["Share in_queue"].summary_algorithm()
            is AllgatherAlgorithm.DEFAULT
        )

    def test_placement_overrides(self):
        cfg = BFSConfig.share_in_queue_variant()
        assert (
            cfg.in_queue_placement(Placement.LOCAL_SOCKET)
            is Placement.NODE_SHARED
        )
        assert (
            cfg.summary_placement(Placement.LOCAL_SOCKET)
            is Placement.LOCAL_SOCKET
        )
        cfg_all = BFSConfig.share_all_variant()
        assert (
            cfg_all.summary_placement(Placement.LOCAL_SOCKET)
            is Placement.NODE_SHARED
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            CommConfig(summary_granularity=100)
        with pytest.raises(ConfigError):
            BFSConfig(alpha=0)
        with pytest.raises(ConfigError):
            CommConfig(parallel_allgather=True)  # needs Share all
        with pytest.raises(ConfigError):
            CommConfig(codec="no-such-codec")
        with pytest.raises(ConfigError):
            BFSConfig(ppn=0)

    def test_string_mode_is_the_enum_mode(self):
        enum_cfg = BFSConfig(mode=TraversalMode.TOP_DOWN)
        assert BFSConfig(mode="top_down") == enum_cfg
        assert replace(BFSConfig(), mode="top_down") == enum_cfg
        assert BFSConfig(mode="top_down").mode is TraversalMode.TOP_DOWN
        with pytest.raises(ConfigError, match="hybrid, top_down, bottom_up"):
            BFSConfig(mode="sideways")

    def test_string_mode_run_is_all_top_down(self):
        g = rmat_graph(scale=10, seed=4)
        config = BFSConfig(mode="top_down")
        res = BFSEngine(g, paper_cluster(nodes=1), config).run(
            int(np.argmax(g.degrees()))
        )
        assert res.levels > 2
        assert {lc.direction for lc in res.counts.levels} == {"top_down"}

    def test_resolve_ppn(self):
        cluster = paper_cluster(nodes=1)
        assert BFSConfig().resolve_ppn(cluster) == 8
        assert BFSConfig(ppn=1).resolve_ppn(cluster) == 1

    def test_named(self):
        cfg = BFSConfig().named("x")
        assert cfg.label == "x"


def run_counts():
    g = rmat_graph(scale=11, seed=4)
    cluster = paper_cluster(nodes=2)
    cfg = BFSConfig.original_ppn8()
    engine = BFSEngine(g, cluster, cfg)
    res = engine.run(int(np.argmax(g.degrees())))
    return g, cluster, cfg, engine, res


class TestCountScaling:
    def test_scaled_counts_linear_in_totals(self):
        """Totals scale linearly; per-rank deviations shrink by 1/sqrt
        (the load-imbalance law), so entries are not simply multiplied."""
        _, _, _, _, res = run_counts()
        scaled = res.counts.scaled(8.0)
        assert scaled.num_vertices == res.counts.num_vertices * 8
        assert scaled.traversed_edges == res.counts.traversed_edges * 8
        for a, b in zip(res.counts.levels, scaled.levels):
            assert b.examined_edges.sum() == pytest.approx(
                8 * a.examined_edges.sum(), rel=0.01, abs=8
            )
            assert b.inq_part_words == a.inq_part_words * 8
            # Relative imbalance must not grow.
            if a.examined_edges.sum() > 100:
                rel_a = a.examined_edges.std() / max(1, a.examined_edges.mean())
                rel_b = b.examined_edges.std() / max(1, b.examined_edges.mean())
                assert rel_b <= rel_a + 1e-9

    def test_scaled_preserves_structure(self):
        _, _, _, _, res = run_counts()
        scaled = res.counts.scaled(2.0)
        assert [l.direction for l in scaled.levels] == [
            l.direction for l in res.counts.levels
        ]
        scaled.validate()

    def test_scale_factor_validation(self):
        _, _, _, _, res = run_counts()
        with pytest.raises(SimulationError):
            res.counts.levels[0].scaled(0)

    def test_validate_catches_bad_shapes(self):
        rc = RunCounts(num_vertices=64, num_ranks=4)
        lc = LevelCounts(level=0, direction="top_down")
        lc.frontier_local = np.zeros(3, dtype=np.int64)  # wrong shape
        rc.levels.append(lc)
        with pytest.raises(SimulationError):
            rc.validate()


class TestTimingAssembler:
    def test_scaling_counts_raises_comm_time(self):
        """Pricing the same run at a paper-like scale (2^17 x) must move
        the allgathers from the latency regime into the bandwidth regime
        and multiply the communication cost."""
        g, cluster, cfg, engine, res = run_counts()
        base = res.timing.breakdown
        factor = 2.0**17
        scaled_counts = res.counts.scaled(factor)
        sizes = StructureSizes(
            num_vertices=scaled_counts.num_vertices,
            num_arcs=int(g.num_directed_edges * factor),
            num_ranks=scaled_counts.num_ranks,
            granularity=cfg.granularity,
        )
        scaled_timing = assemble(scaled_counts, engine.comm, cfg, sizes)
        assert scaled_timing.breakdown.bu_comm > 10 * base.bu_comm
        assert scaled_timing.breakdown.bu_compute > 10 * base.bu_compute

    def test_rank_count_mismatch_rejected(self):
        g, cluster, cfg, engine, res = run_counts()
        other_mapping = ProcessMapping(cluster, ppn=1, policy=BindingPolicy.INTERLEAVE)
        other_comm = SimComm(cluster, other_mapping)
        with pytest.raises(SimulationError):
            assemble(res.counts, other_comm, cfg, engine.sizes)

    def test_breakdown_total_is_sum_of_phases(self):
        _, _, _, _, res = run_counts()
        bd = res.timing.breakdown
        assert bd.total == pytest.approx(sum(bd.as_dict().values()))
        assert 0 <= bd.comm_fraction <= 1

    def test_shared_in_queue_cheaper_comm_than_default(self):
        """The core claim: sharing in_queue cuts the bottom-up
        communication cost."""
        g = rmat_graph(scale=12, seed=4)
        cluster = paper_cluster(nodes=4)
        root = int(np.argmax(g.degrees()))
        t = {}
        for cfg in (
            BFSConfig.original_ppn8(),
            BFSConfig.share_in_queue_variant(),
        ):
            res = BFSEngine(g, cluster, cfg).run(root)
            t[cfg.label] = res.timing.breakdown.bu_comm
        assert t["Share in_queue"] < t["Original.ppn=8"]
