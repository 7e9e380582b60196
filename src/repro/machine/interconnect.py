"""QPI interconnect topology of one node (Fig. 2 of the paper).

The eight X7550 sockets are connected gluelessly over QPI.  We model the
coherence fabric as a 3-D hypercube: socket ``i`` links to ``i ^ 1``,
``i ^ 2`` and ``i ^ 4`` (three coherence links per socket, the fourth QPI
goes to the I/O hub).  For node sizes that are not powers of two the
topology falls back to a ring with one chord, which keeps diameters small
without pretending to more fidelity than the paper gives us.

The quantity the cost model consumes is the *average remote hop count*
and the resulting remote-access latency.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.machine.spec import NodeSpec, QpiSpec

__all__ = ["QpiTopology"]


def _hypercube_links(sockets: int) -> list[tuple[int, int]]:
    dims = sockets.bit_length() - 1
    links = []
    for i in range(sockets):
        for d in range(dims):
            j = i ^ (1 << d)
            if j < sockets and i < j:
                links.append((i, j))
    return links


def _ring_with_chords(sockets: int) -> list[tuple[int, int]]:
    links = [(i, (i + 1) % sockets) for i in range(sockets)]
    # One chord per socket to the opposite side keeps the diameter ~n/4.
    half = sockets // 2
    if half >= 2:
        links += [(i, (i + half) % sockets) for i in range(half)]
    normalized = {(min(a, b), max(a, b)) for a, b in links if a != b}
    return sorted(normalized)


class QpiTopology:
    """Shortest-path hop counts between the sockets of one node."""

    def __init__(self, node: NodeSpec) -> None:
        self.node = node
        self.sockets = node.sockets
        self.qpi: QpiSpec = node.qpi
        if self.sockets == 1:
            links: list[tuple[int, int]] = []
        elif self.sockets & (self.sockets - 1) == 0:
            links = _hypercube_links(self.sockets)
        else:
            links = _ring_with_chords(self.sockets)
        self.links = links
        self._hops = self._all_pairs_hops()

    def _all_pairs_hops(self) -> np.ndarray:
        n = self.sockets
        inf = n + 1
        hops = np.full((n, n), inf, dtype=np.int64)
        np.fill_diagonal(hops, 0)
        for a, b in self.links:
            hops[a, b] = hops[b, a] = 1
        # Floyd-Warshall, one whole-table relaxation per pivot socket.
        for k in range(n):
            np.minimum(hops, hops[:, k:k + 1] + hops[k:k + 1, :], out=hops)
        if n > 1 and hops.max() > n:
            raise ConfigError("QPI topology is disconnected")
        return hops

    def hops(self, src_socket: int, dst_socket: int) -> int:
        """QPI hops between two sockets of the node."""
        if not (0 <= src_socket < self.sockets and 0 <= dst_socket < self.sockets):
            raise ConfigError("socket index out of range")
        return int(self._hops[src_socket, dst_socket])

    def mean_remote_hops(self) -> float:
        """Average hop count from a socket to the *other* sockets."""
        if self.sockets == 1:
            return 0.0
        total = self._hops.sum()
        return float(total) / (self.sockets * (self.sockets - 1))

    def remote_dram_latency(self, hops: float | None = None) -> float:
        """Latency of a DRAM access served by another socket's memory."""
        if hops is None:
            hops = self.mean_remote_hops()
        return self.node.socket.dram_latency_ns + hops * self.qpi.hop_latency_ns

    def remote_llc_latency(self, hops: float | None = None) -> float:
        """Cache-to-cache transfer from a remote L3.

        Molka et al. (the paper's [35]) measure this *below* local DRAM
        latency on Nehalem — the property the paper's shared-``in_queue``
        argument (II.D, reason d) relies on.
        """
        if hops is None:
            hops = self.mean_remote_hops()
        llc = self.node.socket.llc.latency_ns
        return llc + hops * self.qpi.hop_latency_ns

    def cross_socket_bandwidth(self) -> float:
        """Sustainable bandwidth of one socket's QPI traffic."""
        return self.qpi.links_per_socket * self.qpi.link_bandwidth
