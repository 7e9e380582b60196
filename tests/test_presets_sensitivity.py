"""Tests for hardware presets, the sensitivity tooling and the official
Graph500 output block."""

import pytest

from repro.core import BFSConfig, run_graph500
from repro.errors import ConfigError
from repro.graph import rmat_graph
from repro.machine import paper_cluster
from repro.machine.presets import (
    commodity_dual_socket_node,
    modern_cluster,
    modern_epyc_like_node,
    quad_socket_node,
)
from repro.machine.spec import ClusterSpec
from repro.model.analytic import analytic_graph500
from repro.model.sensitivity import (
    CALIBRATION_CONSTANTS,
    evaluate_claims,
    perturb,
    sensitivity_sweep,
)


class TestPresets:
    def test_presets_construct_and_validate(self):
        assert commodity_dual_socket_node().sockets == 2
        assert quad_socket_node().sockets == 4
        assert modern_epyc_like_node().cores == 128

    def test_presets_run_bfs(self):
        """Every preset must be a legal machine for the analytic engine."""
        for cluster in (
            ClusterSpec(nodes=8, node=commodity_dual_socket_node()),
            ClusterSpec(nodes=8, node=quad_socket_node()),
            modern_cluster(nodes=4),
        ):
            ppn = cluster.node.sockets
            res = analytic_graph500(
                cluster, BFSConfig(ppn=ppn), 28
            )
            assert res.teps > 0

    def test_modern_node_is_faster(self):
        """A decade of hardware should beat the X7550 platform at the
        same node count."""
        old = analytic_graph500(
            paper_cluster(nodes=4), BFSConfig.original_ppn8(), 28
        )
        new = analytic_graph500(
            modern_cluster(nodes=4), BFSConfig(ppn=2), 28
        )
        assert new.teps > 2 * old.teps

    def test_fat_memory_helps(self):
        """Populating all DDR3 channels (2x bandwidth) cannot hurt."""
        import dataclasses as dc

        thin = paper_cluster(nodes=4)
        socket = dc.replace(thin.node.socket, dram_bandwidth=34.2e9)
        fat = dc.replace(thin, node=dc.replace(thin.node, socket=socket))
        t_thin = analytic_graph500(thin, BFSConfig.original_ppn8(), 28)
        t_fat = analytic_graph500(fat, BFSConfig.original_ppn8(), 28)
        assert t_fat.seconds <= t_thin.seconds * 1.001


class TestSensitivity:
    def test_perturb_changes_constant(self):
        base = paper_cluster(nodes=2)
        hot = perturb(base, "dram_latency_ns", 2.0)
        assert hot.node.socket.dram_latency_ns == pytest.approx(
            base.node.socket.dram_latency_ns * 2
        )

    def test_perturb_validation(self):
        base = paper_cluster(nodes=2)
        with pytest.raises(ConfigError):
            perturb(base, "nonsense", 1.5)
        with pytest.raises(ConfigError):
            perturb(base, "mlp", 0.0)

    def test_all_constants_perturbable(self):
        base = paper_cluster(nodes=2)
        for name in CALIBRATION_CONSTANTS:
            perturbed = perturb(base, name, 1.3)
            assert perturbed != base

    def test_claims_hold_at_default(self):
        outcome = evaluate_claims(paper_cluster(nodes=16))
        assert outcome.claims_hold
        assert 1.2 < outcome.numa_speedup < 2.5
        assert 1.8 < outcome.overall_speedup < 3.5

    def test_sweep_structure(self):
        sweep = sensitivity_sweep(factors=(1.0,), scale=28, nodes=4)
        assert set(sweep) == set(CALIBRATION_CONSTANTS)
        for outcomes in sweep.values():
            assert set(outcomes) == {1.0}


class TestGraph500Output:
    def test_official_block(self):
        graph = rmat_graph(scale=11, seed=6)
        cluster = paper_cluster(nodes=2)
        result = run_graph500(
            graph, cluster, BFSConfig.original_ppn8(), num_roots=4, seed=1
        )
        block = result.graph500_output(graph)
        assert "SCALE:" in block and "11" in block
        assert "NBFS:" in block and "4" in block
        assert "harmonic_mean_TEPS:" in block
        # Quartile ordering.
        import re

        vals = {
            k: float(v)
            for k, v in re.findall(r"(\w+_TEPS):\s+(\S+)", block)
        }
        assert (
            vals["min_TEPS"]
            <= vals["firstquartile_TEPS"]
            <= vals["median_TEPS"]
            <= vals["thirdquartile_TEPS"]
            <= vals["max_TEPS"]
        )
        assert vals["min_TEPS"] <= vals["harmonic_mean_TEPS"] <= vals["max_TEPS"]

    def test_teps_statistics(self):
        graph = rmat_graph(scale=11, seed=6)
        result = run_graph500(
            graph, paper_cluster(nodes=2), BFSConfig.original_ppn8(),
            num_roots=3, seed=2,
        )
        stats = result.teps_statistics()
        assert stats.n == 3
        assert stats.minimum <= stats.median <= stats.maximum
