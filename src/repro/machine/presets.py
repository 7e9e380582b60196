"""Additional hardware presets beyond the paper's platform.

The machine model is parameterized, so other 2010s-era (and later)
cluster designs are one constructor away.  These presets back the
design-space example and the sensitivity tooling; their numbers are
round, documented approximations — the point is *relative* behaviour
under the same BFS workload, not microarchitectural fidelity.
"""

from __future__ import annotations

from dataclasses import replace

from repro.machine.spec import (
    CacheLevel,
    ClusterSpec,
    IbSpec,
    KB,
    MB,
    NodeSpec,
    QpiSpec,
    SocketSpec,
    x7550_socket,
)

__all__ = [
    "commodity_dual_socket_node",
    "quad_socket_node",
    "modern_epyc_like_node",
    "modern_cluster",
]


def commodity_dual_socket_node() -> NodeSpec:
    """A 2012-era dual-socket Xeon node (the common cluster brick)."""
    return NodeSpec(
        sockets=2,
        socket=x7550_socket(),
        ib=replace(IbSpec(), ports=1),
        dram_per_socket=16 * 1024 * MB,
    )


def quad_socket_node() -> NodeSpec:
    """A 4-socket NUMA node (the T2K-class machine of the paper's [44])."""
    return NodeSpec(sockets=4, socket=x7550_socket())


def modern_epyc_like_node() -> NodeSpec:
    """A loosely EPYC-generation dual-socket node: far more cores and
    cache, much faster memory and network, lower remote penalties.

    Used to ask "would the paper's optimizations still matter?" — the
    sharing levers shrink as intra-node fabrics improve, while the
    direction-optimized algorithm keeps its advantage.
    """
    socket = SocketSpec(
        cores=64,
        frequency_hz=2.45e9,
        caches=(
            CacheLevel("L1D", 32 * KB, 1.6),
            CacheLevel("L2", 1024 * KB, 4.0),
            CacheLevel("L3", 256 * MB, 12.0, shared=True),
        ),
        dram_latency_ns=95.0,
        dram_bandwidth=200e9,
        mlp=10.0,
        tlb_penalty_ns=25.0,  # hugepages by default
        tlb_coverage_bytes=64 * MB,
    )
    qpi = QpiSpec(
        link_bandwidth=50e9,
        hop_latency_ns=50.0,
        links_per_socket=4,
        congestion_per_socket=0.2,
        shared_congestion=1.1,
    )
    ib = IbSpec(
        ports=2,
        port_bandwidth=25e9,  # HDR-class
        message_latency_ns=900.0,
    )
    return NodeSpec(sockets=2, socket=socket, qpi=qpi, ib=ib,
                    dram_per_socket=512 * 1024 * MB)


def modern_cluster(nodes: int = 16) -> ClusterSpec:
    """Cluster of modern dual-socket nodes."""
    return ClusterSpec(nodes=nodes, node=modern_epyc_like_node())
