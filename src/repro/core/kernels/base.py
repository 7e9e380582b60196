"""Kernel backend contract and shared machinery of the BFS compute path.

A *kernel backend* supplies the compute kernels the engine runs every
level: the bottom-up frontier scan (one call per level and lane covering
every rank) and the top-down step (one call per level covering every
rank and lane).  Backends are interchangeable
implementations of the same algorithm — every backend must reproduce
the paper's accounting **bit-identically** (``examined_edges`` and
``inqueue_reads`` per Section II.B.2, the parent of every discovered
vertex, and the discovery order within a level), because the cost model
and the Fig. 16 experiment consume those counts.  What backends may
differ in is how much temporary memory and how many bitmap probes they
spend producing them.

This module holds the contract (:class:`KernelBackend`), the result
dataclasses, the backend registry and the one dense loop of the numpy
bottom-up scans (:func:`scan_rank_slices`), which runs a wavefront per
block of consecutive ranks (``reference`` uses blocks of one rank).
The registry holds one instance per backend, which every engine
shares: a backend keeps no state between calls.  The numpy top-down
step every backend but ``cnative`` inherits lives in
:mod:`repro.core.topdown`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.errors import ConfigError
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.bitmap import Bitmap, SummaryBitmap
    from repro.graph.types import Graph

__all__ = [
    "BottomUpResult",
    "TopDownResult",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "scan_rank_slices",
    "FALLBACK_BACKEND",
    "PAIR_BYTES",
]

# A (child, parent) pair on the wire: two int64 vertex ids.
PAIR_BYTES = 16


@dataclass
class BottomUpResult:
    """Outcome of one bottom-up level: every rank scanned once.

    ``discovered`` and the four per-rank arrays are the paper's
    accounting and must be backend-invariant; the last two fields are
    backend diagnostics (how much work the kernel *materialized* to
    produce those counts) and are never priced.
    """

    discovered: np.ndarray  # newly discovered global ids, ascending
    # Per-rank int64 arrays, shape (ranks,):
    rank_candidates: np.ndarray
    rank_examined_edges: np.ndarray
    rank_inqueue_reads: np.ndarray
    rank_disc_degree: np.ndarray  # degree sum of the rank's discoveries
    # Diagnostics: edges actually gathered/tested by the kernel and the
    # most wavefront rounds any rank took.  The reference backend gathers
    # the full candidate adjacency in one round; the active-set backend
    # gathers roughly the examined prefix over a few rounds, or, on its
    # frontier-side path, the frontier and lit-block arcs plus one
    # wavefront's cells and rounds.
    gathered_edges: int = 0
    chunk_rounds: int = 0

    @property
    def examined_edges(self) -> int:
        """Edges examined over all ranks."""
        return int(self.rank_examined_edges.sum())


def scan_rank_slices(
    scan, graph, parent, in_queue, summary, bounds, block_vertices=0,
    block_candidates=0,
) -> BottomUpResult:
    """One bottom-up level for a numpy backend, one block of consecutive
    ranks at a time.

    Candidates (unvisited vertices with an adjacency) are found over
    blocks of consecutive ranks holding at most ``block_vertices``
    vertices and scanned over blocks holding at most
    ``block_candidates`` candidates; a rank holding more is a block of
    its own, so the defaults go rank by rank.  ``scan(graph, cand,
    in_queue, summary)`` early-exit scans the (non-empty, ascending)
    global candidate ids ``cand`` and returns ``(found, parents,
    examined_edges, inqueue_reads, gathered_edges, chunk_rounds)``:
    ``found`` masks the candidates with a frontier neighbour and
    ``parents`` holds their first ones.  A block of one rank takes the
    two counts as totals; a block of several asks for them per
    candidate (``per_candidate=True``, which only a backend that sets
    budgets needs to accept) and cuts all four per-rank counts at the
    rank bounds.  Blocks spare small ranks a pass and a wavefront each, and
    keep the temporaries cache-resident, where one whole-graph
    wavefront is 20-30 % slower at scale 18 on 8 ranks.
    """
    offsets = graph.offsets
    counts = np.zeros((4, len(bounds) - 1), dtype=np.int64)
    discovered = [np.zeros(0, dtype=np.int64)]
    gathered = rounds = 0
    vb = bounds.tolist()
    for a, b in _rank_blocks(vb, block_vertices):
        lo, hi = vb[a], vb[b]
        off = offsets[lo:hi + 1]
        cand = lo + np.flatnonzero((parent[lo:hi] < 0) & (off[1:] > off[:-1]))
        cuts = ([0, cand.size] if b - a == 1
                else np.searchsorted(cand, bounds[a:b + 1]).tolist())
        for c, d in _rank_blocks(cuts, block_candidates):
            part = cand[cuts[c]:cuts[d]]
            if part.size == 0:
                continue
            found, parents, examined, reads, g, k = (
                scan(graph, part, in_queue, summary) if d - c == 1
                else scan(graph, part, in_queue, summary, per_candidate=True)
            )
            hit = part[found]
            parent[hit] = parents
            disc = offsets[hit + 1] - offsets[hit]
            if d - c == 1:
                counts[:, a + c] = part.size, examined, reads, disc.sum()
            else:
                ranks, block = slice(a + c, a + d), bounds[a + c:a + d + 1]
                counts[:3, ranks] = _rank_sums(part, block, examined, reads)
                counts[3, ranks] = _rank_sums(hit, block, disc)[1]
            discovered.append(hit)
            gathered += g
            rounds = max(rounds, k)
    return BottomUpResult(
        np.concatenate(discovered), *counts,
        gathered_edges=gathered, chunk_rounds=rounds,
    )


def _rank_sums(ids, bounds, *values):
    """Per rank, how many of the ascending ids ``ids`` it holds and the
    sum of each per-id array of ``values`` over them: running sums cut
    at the rank ``bounds``; shape ``(1 + len(values), ranks)``."""
    cut = np.searchsorted(ids, bounds)
    sums = [np.concatenate(([0], np.cumsum(v)))[cut] for v in values]
    return np.diff([cut, *sums], axis=1)


def _rank_blocks(bounds, budget):
    """``(first, end)`` rank ranges of :func:`scan_rank_slices`' blocks
    over the rank ``bounds`` (vertex or candidate positions): consecutive
    ranks spanning at most ``budget`` together, or one rank that alone
    spans more."""
    first = 0
    for r in range(1, len(bounds) - 1):
        if bounds[r + 1] - bounds[first] > budget:
            yield first, r
            first = r
    yield first, len(bounds) - 1


@dataclass
class TopDownResult:
    """Outcome of one top-down level: every lane, every rank.

    The discoveries are already in the parent table; what comes back is
    what the engine prices and carries into the next level.
    """

    # Lane b's next frontier: global ids in (owner, sender, child) order.
    frontiers: list[np.ndarray]
    # (lanes, ranks): adjacency entries each sender walked.
    examined_edges: np.ndarray
    # (lanes, ranks, ranks): bytes sender i ships to owner j.
    send_bytes: np.ndarray
    # (lanes, ranks): degree sum of what each owner discovered.
    disc_degree: np.ndarray


class KernelBackend(abc.ABC):
    """One interchangeable implementation of the BFS compute kernels.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`bottom_up_scan`; :meth:`top_down_expand` has a numpy default a
    backend may override with a faster pass of identical results, and
    :meth:`bottom_up_scan_batch` is the per-lane :meth:`bottom_up_scan`
    loop every backend shares.
    """

    name: ClassVar[str]

    @classmethod
    def availability(cls) -> tuple[bool, str | None]:
        """Whether this backend can actually run in this process.

        ``(True, None)`` when usable — the default, since pure-numpy
        backends always are.  Backends with external requirements (a C
        toolchain, say) return ``(False, reason)`` instead, and
        :func:`get_backend` then falls back to
        :data:`FALLBACK_BACKEND` with a structured warning rather than
        failing the run.
        """
        return (True, None)

    @abc.abstractmethod
    def bottom_up_scan(
        self,
        graph: "Graph",
        parent: np.ndarray,
        in_queue: "Bitmap",
        summary: "SummaryBitmap | None",
        bounds: np.ndarray,
    ) -> BottomUpResult:
        """One bottom-up level: scan every rank's unvisited vertices.

        ``graph`` is the global CSR (``offsets``/``targets``), ``parent``
        the run's one global int64 parent array and rank ``r`` owns the
        vertices ``[bounds[r], bounds[r + 1])``.  Candidates are the
        unvisited vertices with an adjacency.  Must discover exactly the
        candidates with a frontier neighbour, write each one's *first*
        frontier neighbour into ``parent``, and return the discoveries
        ascending with the per-rank Section II.B.2 counts bit-identical
        to the reference backend.

        Any CSR with ``offsets``/``targets`` is accepted, duplicate,
        self-looped and one-directional arcs included, and counted
        row by row.  A backend may rely on more only for a
        :class:`~repro.graph.types.Graph`, whose CSR is symmetric,
        deduplicated and loop-free: ``activeset`` then counts sparse
        frontiers from the frontier's side.
        """

    def bottom_up_scan_batch(
        self,
        graph: "Graph",
        parent: np.ndarray,
        rows: "list[int] | np.ndarray",
        in_queues: "list[Bitmap]",
        summaries: "list[SummaryBitmap | None]",
        bounds: np.ndarray,
    ) -> list[BottomUpResult]:
        """One bottom-up level for every lane: the lane-set counterpart
        of :meth:`top_down_expand` (a single-source run is one lane).

        Lane ``b`` is the traversal whose parent array is the row
        ``parent[rows[b]]`` of the C-contiguous ``(sources, n)`` table,
        with published frontier ``in_queues[b]`` and summary
        ``summaries[b]`` (None when the structure is disabled).  Each
        lane is :meth:`bottom_up_scan` on its own row, so the results
        are that method's, in lane order.
        """
        return [
            self.bottom_up_scan(graph, parent[row], in_queue, summary, bounds)
            for row, in_queue, summary in zip(rows, in_queues, summaries)
        ]

    def top_down_expand(
        self,
        graph: "Graph",
        frontiers: list[np.ndarray],
        parent: np.ndarray,
        rows: np.ndarray,
        owner_of: np.ndarray,
        bounds: np.ndarray,
    ) -> TopDownResult:
        """One top-down level for every lane on every rank (the
        ``mpi_simple`` step; a single-source run is one lane).

        ``frontiers[b]`` is lane ``b``'s frontier as global vertex ids in
        rank-major order (all of rank 0's members, then rank 1's, ...),
        ``parent`` the C-contiguous ``(sources, n)`` parent table whose
        row ``rows[b]`` lane ``b`` owns, and rank ``r`` owns the vertices
        ``[bounds[r], bounds[r + 1])`` (``owner_of`` maps each vertex to
        its rank).  Each (lane, sender) keeps the first offer per child in
        frontier and CSR order — ``send_bytes`` counts those pairs,
        already-visited children included — and a child unvisited before
        the level takes its parent from the lowest sender; discoveries
        are written into ``parent`` and returned as the next frontiers in
        (owner, sender, child) order, which feeds the next level's
        first-offer rule.  This default runs the numpy stages of
        :mod:`repro.core.topdown`; ``cnative`` fuses them into one C pass.
        """
        from repro.core import topdown

        return topdown.step(graph, frontiers, parent, rows, owner_of, bounds)


_REGISTRY: dict[str, type[KernelBackend]] = {}
_SHARED: dict[str, KernelBackend] = {}

#: Where resolution lands when a selected backend is unavailable.
FALLBACK_BACKEND = "activeset"

#: Backends already warned about this process (warn once, not per call).
_WARNED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator: register a backend under its ``name`` attribute."""
    if not getattr(cls, "name", None):
        raise ConfigError("kernel backend classes must set a non-empty name")
    _REGISTRY[cls.name] = cls
    _SHARED.pop(cls.name, None)
    return cls


def available_backends(detail: bool = False):
    """Registered kernel backends, sorted by name.

    By default a tuple of names — every *registered* backend, usable or
    not, so benchmark matrices and CLI validation see the full set.
    With ``detail=True`` a ``{name: (available, reason)}`` mapping
    instead, where ``reason`` is None for usable backends and the
    human-readable unavailability cause otherwise (probing may be as
    expensive as one compiler run for the cnative backend, memoized per
    process).
    """
    if not detail:
        return tuple(sorted(_REGISTRY))
    return {
        name: cls.availability() for name, cls in sorted(_REGISTRY.items())
    }


def get_backend(name: str) -> KernelBackend:
    """Backend instance by registry name, shared across callers: a
    backend holds no state between calls.

    An *unknown* name raises :class:`ConfigError`; a registered backend
    that reports itself unavailable (no toolchain, failed build) instead
    degrades to :data:`FALLBACK_BACKEND` with a structured ``REPRO_LOG``
    warning — once per process per backend — so pinning
    ``REPRO_KERNEL=cnative`` never breaks a run on a machine without a
    compiler.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} "
            f"(set BFSConfig.kernel or $REPRO_KERNEL)"
        )
    ok, reason = cls.availability()
    if not ok:
        if name == FALLBACK_BACKEND:  # pragma: no cover - always available
            raise ConfigError(
                f"fallback kernel backend {name!r} unavailable: {reason}"
            )
        if name not in _WARNED:
            _WARNED.add(name)
            get_logger("kernels").warning(
                "kernel backend unavailable; falling back",
                extra={
                    "backend": name,
                    "fallback": FALLBACK_BACKEND,
                    "reason": reason,
                },
            )
        return get_backend(FALLBACK_BACKEND)
    if name not in _SHARED:
        _SHARED[name] = cls()
    return _SHARED[name]
