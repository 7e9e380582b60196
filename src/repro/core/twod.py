"""2-D partitioned BFS (Buluc & Madduri, SC'11 — the paper's [11]).

The paper's related-work section singles this algorithm out: it cuts
communication by partitioning the adjacency *matrix* over an
``R x C`` processor grid instead of partitioning vertices 1-D, and the
paper notes the two approaches are orthogonal ("our implementation could
be applied to 2-D partition algorithm to further reduce its communication
overhead").  This module implements the classic top-down 2-D algorithm as
a second, fully functional engine on the same simulated cluster, so the
1-D-vs-2-D comparison can be made quantitatively
(``benchmarks/bench_2d.py``).

Layout.  With ``np = R * C`` ranks, the vertex space is cut into ``np``
equal segments; rank ``(i, j)`` owns segment ``i * C + j``.  Block-row
``i`` is the union of the segments of processor-row ``i``; block-column
``j`` the union of processor-column ``j``'s segments.  Rank ``(i, j)``
stores the arcs ``u -> v`` with ``u`` in block-column ``j`` and ``v`` in
block-row ``i``.

One level has two communication phases, both within a fiber of the grid:

* **expand** — allgatherv of the frontier segments within each processor
  *column* (every rank learns the frontier of its block-column);
* **fold** — alltoallv of the discovered (child, parent) pairs within
  each processor *row*, delivering each pair to the child's owner.

Per-rank traffic scales like ``n/C + n/R ~ n/sqrt(np)`` instead of the
1-D hybrid's ``n`` for the replicated bitmap — the SC'11 result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.core.state import RankState
from repro.core.timing import BfsTiming, CostConstants, StructureSizes, assemble
from repro.core import topdown
from repro.errors import ConfigError, GraphError
from repro.graph.partition import Partition1D
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.mpi.mapping import BindingPolicy, ProcessMapping
from repro.mpi.p2p import MessageLedger
from repro.mpi.simcomm import SimComm

__all__ = ["Grid2D", "TwoDBFSEngine", "TwoDResult"]


@dataclass(frozen=True)
class Grid2D:
    """An ``R x C`` processor grid over ``R * C`` ranks (row-major)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        """Number of ranks in the grid."""
        return self.rows * self.cols

    def rank_of(self, i: int, j: int) -> int:
        """Rank at grid coordinate (i, j), row-major."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ConfigError(f"grid coordinate ({i}, {j}) out of range")
        return i * self.cols + j

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinate (i, j) of a rank."""
        if not 0 <= rank < self.size:
            raise ConfigError(f"rank {rank} out of range")
        return divmod(rank, self.cols)

    def column_ranks(self, j: int) -> list[int]:
        """Ranks of processor-column j."""
        return [self.rank_of(i, j) for i in range(self.rows)]

    def row_ranks(self, i: int) -> list[int]:
        """Ranks of processor-row i."""
        return [self.rank_of(i, j) for j in range(self.cols)]


@dataclass
class TwoDResult:
    """Outcome of one 2-D BFS run."""

    root: int
    parent: np.ndarray
    levels: int
    counts: RunCounts
    timing: BfsTiming
    # Total bytes moved per level (expand + fold), for the comparison
    # against the 1-D engine's allgather volume.
    comm_bytes_per_level: list[float]

    @property
    def visited(self) -> int:
        """Number of reached vertices."""
        return int(np.count_nonzero(self.parent >= 0))

    @property
    def seconds(self) -> float:
        """Simulated wall time of the traversal."""
        return self.timing.total_seconds

    @property
    def teps(self) -> float:
        """Traversed edges per simulated second."""
        if self.seconds <= 0:
            return 0.0
        return self.counts.traversed_edges / self.seconds

    @property
    def total_comm_bytes(self) -> float:
        """Bytes moved across the whole run (expand + fold)."""
        return float(sum(self.comm_bytes_per_level))


class _LocalBlock:
    """Rank (i, j)'s arcs: CSR keyed by source within block-column j."""

    def __init__(
        self,
        graph: Graph,
        segment_partition: Partition1D,
        grid: Grid2D,
        i: int,
        j: int,
    ) -> None:
        # Block-column j sources: segments of processor-column j.
        col_ranges = [
            segment_partition.range_of(grid.rank_of(r, j))
            for r in range(grid.rows)
        ]
        # Block-row i targets: segments of processor-row i.
        row_ranges = [
            segment_partition.range_of(grid.rank_of(i, c))
            for c in range(grid.cols)
        ]
        row_lo = min(lo for lo, _ in row_ranges)
        row_hi = max(hi for _, hi in row_ranges)

        src_chunks: list[np.ndarray] = []
        dst_chunks: list[np.ndarray] = []
        for lo, hi in col_ranges:
            if lo == hi:
                continue
            start, end = graph.offsets[lo], graph.offsets[hi]
            targets = graph.targets[start:end]
            sources = np.repeat(
                np.arange(lo, hi, dtype=np.int64),
                np.diff(graph.offsets[lo : hi + 1]),
            )
            keep = (targets >= row_lo) & (targets < row_hi)
            src_chunks.append(sources[keep])
            dst_chunks.append(targets[keep])
        if src_chunks:
            self.sources = np.concatenate(src_chunks)
            self.targets = np.concatenate(dst_chunks)
            order = np.argsort(self.sources, kind="stable")
            self.sources = self.sources[order]
            self.targets = self.targets[order]
        else:
            self.sources = np.zeros(0, dtype=np.int64)
            self.targets = np.zeros(0, dtype=np.int64)

    def explore(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arcs out of ``frontier`` (global source ids): returns
        (children, parents) with one entry per distinct child."""
        if frontier.size == 0 or self.sources.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        lo = np.searchsorted(self.sources, frontier, side="left")
        hi = np.searchsorted(self.sources, frontier, side="right")
        lens = hi - lo
        total = int(lens.sum())
        if total == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        flat_starts = np.cumsum(lens) - lens
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(flat_starts, lens)
            + np.repeat(lo, lens)
        )
        children = self.targets[pos]
        parents = np.repeat(frontier, lens)
        order = np.argsort(children, kind="stable")
        children, parents = children[order], parents[order]
        keep = np.empty(children.size, dtype=bool)
        keep[0] = True
        np.not_equal(children[1:], children[:-1], out=keep[1:])
        return children[keep], parents[keep]


class TwoDBFSEngine:
    """Top-down BFS on an ``R x C`` process grid."""

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        grid: Grid2D,
        binding: BindingPolicy = BindingPolicy.BIND_TO_SOCKET,
        constants: CostConstants = CostConstants(),
    ) -> None:
        ppn = grid.size // cluster.nodes
        if grid.size % cluster.nodes != 0 or ppn < 1:
            raise ConfigError(
                f"grid size {grid.size} must be a positive multiple of the "
                f"node count {cluster.nodes}"
            )
        self.graph = graph
        self.cluster = cluster
        self.grid = grid
        self.constants = constants
        if ppn == 1 and cluster.node.sockets > 1:
            # One rank per node cannot be socket-bound (Fig. 10's note);
            # fall back to the interleaved policy.
            binding = BindingPolicy.INTERLEAVE
        self.mapping = ProcessMapping(cluster, ppn=ppn, policy=binding)
        self.comm = SimComm(cluster, self.mapping)
        n = graph.num_vertices
        if n % (grid.size * 64) != 0:
            raise ConfigError(
                f"num_vertices={n} must be a multiple of 64 * grid size "
                f"(= {grid.size * 64})"
            )
        self.segments = Partition1D(n, grid.size)
        self._blocks = {
            (i, j): _LocalBlock(graph, self.segments, grid, i, j)
            for i in range(grid.rows)
            for j in range(grid.cols)
        }
        self._states = [
            self.segments.extract_local(graph, r) for r in range(grid.size)
        ]
        self.sizes = StructureSizes(
            num_vertices=n,
            num_arcs=graph.num_directed_edges,
            num_ranks=grid.size,
            granularity=64,
        )

    def run(self, root: int) -> TwoDResult:
        """Execute one 2-D BFS from ``root`` and price it."""
        graph, grid = self.graph, self.grid
        if not 0 <= root < graph.num_vertices:
            raise GraphError(f"root {root} out of range")
        np_ranks = grid.size
        states = [RankState(lg) for lg in self._states]
        counts = RunCounts(num_vertices=graph.num_vertices, num_ranks=np_ranks)
        comm_bytes: list[float] = []

        owner = int(self.segments.owner(root))
        states[owner].discover(
            states[owner].to_local(np.array([root])), np.array([root])
        )
        frontier_segments: list[np.ndarray] = [
            np.zeros(0, dtype=np.int64) for _ in range(np_ranks)
        ]
        frontier_segments[owner] = np.array([root], dtype=np.int64)

        level = 0
        while any(f.size for f in frontier_segments):
            lc = LevelCounts(level=level, direction=Direction.TOP_DOWN)
            lc.allreduces = 1
            lc.frontier_local = np.array(
                [f.size for f in frontier_segments], dtype=np.int64
            )
            send_bytes = np.zeros((np_ranks, np_ranks), dtype=np.int64)

            # --- expand: column allgatherv of frontier segments --------
            col_frontier: dict[int, np.ndarray] = {}
            for j in range(grid.cols):
                ranks = grid.column_ranks(j)
                pieces = [frontier_segments[r] for r in ranks]
                merged = (
                    np.concatenate(pieces)
                    if any(p.size for p in pieces)
                    else np.zeros(0, dtype=np.int64)
                )
                col_frontier[j] = merged
                for src in ranks:
                    nbytes = frontier_segments[src].nbytes
                    for dst in ranks:
                        if src != dst:
                            send_bytes[src, dst] += nbytes

            # --- local exploration + fold (row alltoallv) --------------
            # The fold runs over the point-to-point layer: each rank posts
            # its (child, parent) pairs to the children's owners, one
            # superstep delivers them.  Timing is carried by the
            # td_send_bytes matrix through the standard assembler.
            ledger = MessageLedger(self.comm)
            examined = np.zeros(np_ranks, dtype=np.int64)
            for i in range(grid.rows):
                for j in range(grid.cols):
                    rank = grid.rank_of(i, j)
                    block = self._blocks[(i, j)]
                    children, parents = block.explore(col_frontier[j])
                    examined[rank] = int(
                        np.searchsorted(
                            block.sources, col_frontier[j], side="right"
                        ).sum()
                        - np.searchsorted(
                            block.sources, col_frontier[j], side="left"
                        ).sum()
                    )
                    if children.size == 0:
                        continue
                    owners = self.segments.owner(children)
                    for dst in np.unique(owners):
                        mask = owners == dst
                        pairs = np.stack(
                            [children[mask], parents[mask]], axis=1
                        )
                        ledger.send(rank, int(dst), pairs)
                        if int(dst) != rank:
                            send_bytes[rank, int(dst)] += pairs.nbytes
            ledger.exchange()

            new_segments = []
            discovered = np.zeros(np_ranks, dtype=np.int64)
            for r in range(np_ranks):
                messages = ledger.recv_all(r)
                if messages:
                    pairs = np.concatenate([m.payload for m in messages])
                    # Several column blocks can offer the same child:
                    # the first message in arrival order wins.
                    _, first = np.unique(pairs[:, 0], return_index=True)
                    pairs = pairs[np.sort(first)]
                    fresh = states[r].discover(
                        states[r].to_local(pairs[:, 0]), pairs[:, 1]
                    )
                    new_global = fresh + states[r].local.lo
                else:
                    new_global = np.zeros(0, dtype=np.int64)
                new_segments.append(new_global)
                discovered[r] = new_global.size
            ledger.assert_drained()

            lc.examined_edges = examined
            lc.candidates = np.zeros(np_ranks, dtype=np.int64)
            lc.inqueue_reads = np.zeros(np_ranks, dtype=np.int64)
            lc.discovered = discovered
            lc.td_send_bytes = send_bytes
            counts.levels.append(lc)
            comm_bytes.append(float(send_bytes.sum()))
            frontier_segments = new_segments
            level += 1

        counts.visited_vertices = sum(st.visited_count() for st in states)
        counts.traversed_edges = (
            sum(int(st.degrees[st.parent >= 0].sum()) for st in states) // 2
        )
        parent = np.concatenate([st.parent for st in states])
        timing = assemble(
            counts,
            self.comm,
            # 2-D is a pure top-down engine; reuse the 1-D pricing with a
            # plain configuration (no sharing, summary unused).
            _plain_config(),
            self.sizes,
            self.constants,
        )
        return TwoDResult(
            root=root,
            parent=parent,
            levels=level,
            counts=counts,
            timing=timing,
            comm_bytes_per_level=comm_bytes,
        )


    def extrapolate(self, result: TwoDResult, target_scale: int) -> TwoDResult:
        """Re-price a run at ``2**target_scale`` vertices (the 2-D
        counterpart of :func:`repro.model.extrapolate_result`)."""
        factor = (1 << target_scale) / result.counts.num_vertices
        if factor < 1.0:
            raise ConfigError("extrapolation only scales up")
        scaled = result.counts.scaled(factor)
        sizes = StructureSizes(
            num_vertices=scaled.num_vertices,
            num_arcs=int(round(self.graph.num_directed_edges * factor)),
            num_ranks=scaled.num_ranks,
            granularity=64,
        )
        timing = assemble(
            scaled, self.comm, _plain_config(), sizes, self.constants
        )
        return TwoDResult(
            root=result.root,
            parent=result.parent,
            levels=result.levels,
            counts=scaled,
            timing=timing,
            comm_bytes_per_level=[
                b * factor for b in result.comm_bytes_per_level
            ],
        )


def _plain_config():
    from repro.core.config import BFSConfig, CommConfig, TraversalMode

    return BFSConfig(
        mode=TraversalMode.TOP_DOWN, comm=CommConfig(use_summary=False)
    )
