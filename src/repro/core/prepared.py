"""Immutable prepared-graph state shared across BFS queries.

``BFSEngine.__init__`` historically rebuilt the expensive per-run
structures — the 1-D partition, the per-rank CSR extractions, the bitmap
word layout — for every engine, which a serving layer answering many
queries against the same graph cannot afford.  :class:`PreparedGraph`
splits that build work out into an immutable, shareable product keyed by
the *partition-relevant* slice of the configuration:

* the graph itself (identified by a content digest, cached on
  ``graph.meta``);
* the cluster spec and the resolved ranks-per-node / binding;
* whether the partition is degree-balanced.

Everything else on :class:`~repro.core.config.BFSConfig` (codec, kernel,
sharing variant, granularity, alpha/beta ...) is per-query state and
does not invalidate a prepared graph, so one ``PreparedGraph`` serves
every communication/kernel variant of the Fig. 9 stack at once — which
is exactly what :func:`~repro.core.api.compare_configs` and the serving
layer (:mod:`repro.serve`) exploit.

:class:`PreparedGraphCache` is the process-wide LRU in front of
:meth:`PreparedGraph.prepare`; it is thread-safe because the serving
scheduler prepares graphs from worker threads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.graph.partition import (
    Partition1D,
    degree_balanced_bounds,
    word_aligned_bounds,
)
from repro.graph.types import Graph
from repro.machine.spec import ClusterSpec
from repro.mpi.mapping import BindingPolicy, ProcessMapping
from repro.util import bitops
from repro.util.lru import LRUCache

__all__ = [
    "PreparedGraph",
    "PreparedGraphCache",
    "graph_digest",
    "default_prepared_cache",
    "reset_default_prepared_cache",
]

_DIGEST_META_KEY = "content_digest"


def graph_digest(graph: Graph) -> str:
    """Stable content digest of a graph's CSR arrays.

    Hashes the vertex count plus the raw bytes of ``offsets`` and
    ``targets`` (sha256, 16 hex digits).  The digest is memoized in
    ``graph.meta`` — the ``Graph`` dataclass is frozen but its ``meta``
    dict is deliberately mutable provenance — so repeated cache lookups
    on the same object cost a dict read, not a re-hash.
    """
    cached = graph.meta.get(_DIGEST_META_KEY)
    if isinstance(cached, str) and cached:
        return cached
    h = hashlib.sha256()
    h.update(str(graph.num_vertices).encode())
    for array in (graph.offsets, graph.targets):
        # The array's own buffer: a bytes copy of targets is as large as
        # the graph.
        h.update(memoryview(np.ascontiguousarray(array, dtype=np.int64)).cast("B"))
    digest = h.hexdigest()[:16]
    graph.meta[_DIGEST_META_KEY] = digest
    return digest


def _partition_axes(cluster: ClusterSpec, config) -> tuple:
    """The slice of (cluster, config) that determines the partition.

    ``ClusterSpec`` is frozen but not hashable (its ``weak_nodes`` dict),
    so cache keys carry its deterministic dataclass ``repr`` instead of
    the object itself.
    """
    return (
        repr(cluster),
        config.resolve_ppn(cluster),
        config.binding,
        config.degree_balanced,
    )


@dataclass(frozen=True)
class PreparedGraph:
    """Everything query-invariant an engine needs to traverse ``graph``.

    Instances are immutable and safe to share across engines, threads
    and concurrent queries: the contained numpy arrays are never written
    after construction (per-query state lives in the engines' runs).
    """

    graph: Graph
    cluster: ClusterSpec
    ppn: int
    binding: BindingPolicy
    degree_balanced: bool
    mapping: ProcessMapping = field(repr=False)
    partition: Partition1D = field(repr=False)
    #: Words per rank's bitmap slice.
    part_words: tuple[int, ...] = field(repr=False)
    #: Word offset of each rank's slice in the concatenated bitmap
    #: (bounds are 64-aligned, so the slices tile exactly).
    word_starts: np.ndarray = field(repr=False)
    #: Global degree array (``np.diff(graph.offsets)``).
    degrees: np.ndarray = field(repr=False)
    #: Owning rank of every vertex (partitions are contiguous ranges).
    owner_of: np.ndarray = field(repr=False)
    #: Summed degree of each rank's vertices — every traversal's initial
    #: per-rank unexplored-edge count.
    rank_degree: np.ndarray = field(repr=False)

    @classmethod
    def prepare(
        cls, graph: Graph, cluster: ClusterSpec, config
    ) -> "PreparedGraph":
        """Build the shared state for one (graph, cluster, partition
        config) triple — the work formerly done inline by
        ``BFSEngine.__init__``."""
        ppn = config.resolve_ppn(cluster)
        mapping = ProcessMapping(cluster, ppn, config.binding)
        np_ranks = mapping.num_ranks
        n = graph.num_vertices
        if n % 64 != 0 or n < np_ranks * 64:
            raise ConfigError(
                f"num_vertices={n} must be a multiple of 64 and at least "
                f"64 * num_ranks (= {np_ranks * 64}) so that bitmap parts "
                f"stay word-aligned"
            )
        if config.degree_balanced:
            bounds = degree_balanced_bounds(graph, np_ranks, alignment=64)
        else:
            bounds = word_aligned_bounds(n, np_ranks)
        partition = Partition1D(n, np_ranks, bounds=bounds)
        part_words = tuple(
            bitops.words_for_bits(partition.size_of(r))
            for r in range(np_ranks)
        )
        word_starts = np.concatenate(([0], np.cumsum(part_words))).astype(
            np.int64
        )
        word_starts.flags.writeable = False
        degrees = np.diff(graph.offsets)
        owner_of = np.repeat(
            np.arange(np_ranks, dtype=np.int64), np.diff(bounds)
        )
        owner_of.flags.writeable = False
        rank_degree = np.diff(graph.offsets[bounds]).astype(np.int64)
        rank_degree.flags.writeable = False
        return cls(
            graph=graph,
            cluster=cluster,
            ppn=ppn,
            binding=config.binding,
            degree_balanced=config.degree_balanced,
            mapping=mapping,
            partition=partition,
            part_words=part_words,
            word_starts=word_starts,
            degrees=degrees,
            owner_of=owner_of,
            rank_degree=rank_degree,
        )

    @property
    def num_ranks(self) -> int:
        """Simulated MPI ranks the graph is partitioned over."""
        return self.mapping.num_ranks

    @property
    def digest(self) -> str:
        """Content digest of the prepared graph (memoized on the graph)."""
        return graph_digest(self.graph)

    def nbytes(self) -> int:
        """Estimated resident bytes of the partition state.

        Sums the numpy arrays this object *owns* — partition bounds,
        word layout, degrees, owner table — but not the input graph,
        which the caller holds regardless of caching.
        Used by :class:`PreparedGraphCache`'s optional byte bound.
        """
        return (
            int(self.partition.bounds.nbytes)
            + int(self.word_starts.nbytes)
            + int(self.degrees.nbytes)
            + int(self.owner_of.nbytes)
            + int(self.rank_degree.nbytes)
        )

    def check(self, graph: Graph, cluster: ClusterSpec, config) -> None:
        """Raise :class:`ConfigError` unless this prepared state matches
        the (graph, cluster, config) an engine wants to run with."""
        if graph is not self.graph and graph_digest(graph) != self.digest:
            raise ConfigError(
                "prepared graph was built for a different graph "
                f"(digest {self.digest})"
            )
        axes = _partition_axes(cluster, config)
        mine = (
            repr(self.cluster),
            self.ppn,
            self.binding,
            self.degree_balanced,
        )
        if axes != mine:
            raise ConfigError(
                "prepared graph was built for a different partition "
                "configuration: prepared="
                f"(ppn={self.ppn}, binding={self.binding}, "
                f"degree_balanced={self.degree_balanced}), requested="
                f"(ppn={axes[1]}, binding={axes[2]}, "
                f"degree_balanced={axes[3]})"
            )


class PreparedGraphCache(LRUCache):
    """Thread-safe LRU of :class:`PreparedGraph` instances.

    Keyed by ``(graph digest, cluster, resolved ppn, binding,
    degree_balanced)`` — the partition-relevant configuration axes.  Two
    queries that differ only in codec/kernel/sharing settings share one
    entry.  ``hits``/``misses`` feed the serving layer's cache-hit-rate
    report.

    ``max_bytes`` optionally bounds the summed
    :meth:`PreparedGraph.nbytes` estimate in addition to the entry
    count, evicting least-recently-used entries past either bound — the
    knob that keeps a long-lived service from pinning every graph it
    has ever prepared.
    """

    def __init__(self, maxsize: int = 8, max_bytes: int | None = None) -> None:
        super().__init__(
            maxsize, max_bytes,
            sizeof=PreparedGraph.nbytes, name="prepared-graph cache",
        )

    @staticmethod
    def key_for(graph: Graph, cluster: ClusterSpec, config) -> tuple:
        """The cache key of one (graph, cluster, config) request."""
        return (graph_digest(graph),) + _partition_axes(cluster, config)

    def get_or_prepare(
        self, graph: Graph, cluster: ClusterSpec, config
    ) -> PreparedGraph:
        """Return the cached prepared graph, building it on first use."""
        key = self.key_for(graph, cluster, config)
        prepared = self.get(key)
        if prepared is None:
            # Built outside the lock: preparation is pure and idempotent,
            # so a rare duplicate build under contention only wastes work.
            prepared = PreparedGraph.prepare(graph, cluster, config)
            self.put(key, prepared)
        return prepared


_DEFAULT: PreparedGraphCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_prepared_cache() -> PreparedGraphCache:
    """Process-wide prepared-graph cache (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = PreparedGraphCache()
        return _DEFAULT


def reset_default_prepared_cache() -> PreparedGraphCache:
    """Replace the process-wide cache with a fresh one (tests, CLI)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = PreparedGraphCache()
        return _DEFAULT
