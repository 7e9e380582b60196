"""Tests for machine specifications and the QPI topology."""

import pytest

from repro.errors import ConfigError
from repro.machine import (
    CacheLevel,
    ClusterSpec,
    IbSpec,
    NodeSpec,
    QpiTopology,
    SocketSpec,
    paper_cluster,
    x7550_node,
    x7550_socket,
)
from repro.machine.spec import GB, KB, MB, QpiSpec


class TestSpecs:
    def test_table1_values(self):
        """The default node matches Table I of the paper."""
        node = x7550_node()
        assert node.sockets == 8
        assert node.cores == 64
        assert node.socket.frequency_hz == 2.0e9
        names = [c.name for c in node.socket.caches]
        assert names == ["L1D", "L2", "L3"]
        assert node.socket.caches[0].capacity_bytes == 32 * KB
        assert node.socket.caches[1].capacity_bytes == 256 * KB
        assert node.socket.caches[2].capacity_bytes == 18 * MB
        assert node.socket.dram_bandwidth == pytest.approx(17.1e9)
        assert node.dram_total == 256 * GB
        assert node.ib.ports == 2

    def test_paper_cluster(self):
        cluster = paper_cluster()
        assert cluster.nodes == 16
        assert cluster.total_cores == 1024
        assert cluster.total_sockets == 128

    def test_weak_node(self):
        cluster = paper_cluster(weak_node=True)
        assert cluster.network_derating(15) < 1.0
        assert cluster.network_derating(0) == 1.0

    def test_with_nodes_drops_out_of_range_weak(self):
        cluster = paper_cluster(weak_node=True).with_nodes(8)
        assert cluster.nodes == 8
        assert cluster.weak_nodes == {}

    def test_cache_validation(self):
        with pytest.raises(ConfigError):
            CacheLevel("bad", 0, 1.0)
        with pytest.raises(ConfigError):
            CacheLevel("bad", 10, -1.0)

    def test_socket_cache_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SocketSpec(
                caches=(
                    CacheLevel("L1", 64 * KB, 1.0),
                    CacheLevel("L2", 32 * KB, 2.0),
                )
            )

    def test_ib_curve_validation(self):
        with pytest.raises(ConfigError):
            IbSpec(bw_vs_flows=((2, 0.5), (1, 1.0)))
        with pytest.raises(ConfigError):
            IbSpec(bw_vs_flows=((1, 0.9), (2, 0.5)))
        with pytest.raises(ConfigError):
            IbSpec(bw_vs_flows=((1, 1.5),))

    def test_cluster_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(nodes=0)
        with pytest.raises(ConfigError):
            ClusterSpec(nodes=2, weak_nodes={5: 0.5})
        with pytest.raises(ConfigError):
            ClusterSpec(nodes=2, weak_nodes={0: 0.0})

    def test_llc_accessor(self):
        assert x7550_socket().llc.name == "L3"
        with pytest.raises(ConfigError):
            SocketSpec(caches=()).llc


class TestQpiTopology:
    def test_eight_socket_hypercube(self):
        topo = QpiTopology(x7550_node())
        # 3-D hypercube: diameter 3, 12 links, 3 links per socket.
        assert len(topo.links) == 12
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 7) == 3
        assert topo.mean_remote_hops() == pytest.approx(12 / 7)

    def test_single_socket(self):
        node = NodeSpec(sockets=1, socket=x7550_socket())
        topo = QpiTopology(node)
        assert topo.mean_remote_hops() == 0.0

    def test_non_power_of_two_connected(self):
        node = NodeSpec(sockets=6, socket=x7550_socket())
        topo = QpiTopology(node)
        for i in range(6):
            for j in range(6):
                assert topo.hops(i, j) <= 3

    def test_remote_latencies_ordering(self):
        """Paper II.D(d): remote LLC is faster than local DRAM, which is
        faster than remote DRAM."""
        node = x7550_node()
        topo = QpiTopology(node)
        assert topo.remote_llc_latency() < node.socket.dram_latency_ns
        assert topo.remote_dram_latency() > node.socket.dram_latency_ns

    def test_hypercube_table_is_bit_distance(self):
        topo = QpiTopology(x7550_node())
        assert [
            [topo.hops(i, j) for j in range(8)] for i in range(8)
        ] == [[bin(i ^ j).count("1") for j in range(8)] for i in range(8)]

    def test_disconnected_links_are_rejected(self):
        topo = QpiTopology(NodeSpec(sockets=4, socket=x7550_socket()))
        topo.links = [(0, 1), (2, 3)]
        with pytest.raises(ConfigError, match="disconnected"):
            topo._all_pairs_hops()

    def test_hops_out_of_range(self):
        topo = QpiTopology(x7550_node())
        with pytest.raises(ConfigError):
            topo.hops(0, 8)

    def test_qpi_spec_validation(self):
        with pytest.raises(ConfigError):
            QpiSpec(link_bandwidth=0)
        with pytest.raises(ConfigError):
            QpiSpec(links_per_socket=0)
