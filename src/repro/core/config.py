"""BFS configuration: the paper's optimization stack as explicit knobs.

Each named variant of Fig. 9 is a preset:

==================  =====================================================
``Original.ppn=1``  one process per node, ``numactl --interleave=all``
``Original.ppn=8``  one process per socket, ``--bind-to-socket``
``Share in_queue``  node-shared ``in_queue`` (no broadcast step)
``Share all``       ``out_queue`` and summaries shared too (no gather)
``Par allgather``   the in_queue allgather runs in parallel subgroups
``Granularity``     summary granularity raised from 64 (best: 256)
==================  =====================================================

Communication settings live in one place: :class:`CommConfig`, held as
``BFSConfig.comm``.  It consolidates the sharing variant, the parallel
subgroup schedule, an explicit allgather-algorithm override, the summary
granularity and the frontier codec (see docs/COMMUNICATION.md).
``BFSConfig``'s ``share_in_queue``, ``share_all``, ``parallel_allgather``,
``granularity`` and ``use_summary`` are read-only views of it, not
constructor arguments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core.kernels import resolve_backend
from repro.errors import ConfigError
from repro.machine.memory import Placement
from repro.machine.spec import ClusterSpec
from repro.mpi.codecs import available_codecs, resolve_codec
from repro.mpi.collectives import AllgatherAlgorithm
from repro.mpi.mapping import BindingPolicy

__all__ = [
    "TraversalMode",
    "SharingVariant",
    "CommConfig",
    "BFSConfig",
    "paper_variants",
]


class TraversalMode(enum.Enum):
    """Which expansion kernels the engine may use."""

    HYBRID = "hybrid"
    TOP_DOWN = "top_down"  # pure mpi_simple-style BFS
    BOTTOM_UP = "bottom_up"  # pure mpi_replicated-style BFS


class SharingVariant(enum.Enum):
    """How much of the frontier state lives in node-shared memory.

    Replaces the old ``share_in_queue``/``share_all`` boolean pair,
    whose fourth combination (``share_all`` without ``share_in_queue``)
    was invalid by construction.
    """

    #: All structures in rank-private memory ('Original' variants).
    PRIVATE = "private"
    #: Node-shared ``in_queue`` — the broadcast step disappears (Fig. 5b).
    IN_QUEUE = "in_queue"
    #: ``out_queue`` and summaries shared too — no gather step either.
    ALL = "all"


@dataclass(frozen=True)
class CommConfig:
    """All communication knobs of one BFS execution, in one place.

    Section III.A-B of the paper plus the PR-3 compression layer: the
    sharing variant, the Fig. 7 parallel-subgroup allgather, an explicit
    algorithm override for the in_queue allgather, the in_queue summary
    (Section III.C), and the frontier codec.
    """

    #: Memory sharing variant (Fig. 5a/5b and 'Share all').
    sharing: SharingVariant = SharingVariant.PRIVATE
    #: Fig. 7: in_queue allgather over concurrent per-node subgroups.
    parallel_allgather: bool = False
    #: Explicit in_queue allgather algorithm; None derives it from the
    #: sharing variant as the paper's stack does.
    allgather: AllgatherAlgorithm | None = None
    #: Vertices per summary bit (Section III.C; multiple of 64).
    summary_granularity: int = 64
    #: Maintain and price the in_queue summary at all.
    use_summary: bool = True
    #: Frontier codec name (repro.mpi.codecs); None defers to the
    #: REPRO_CODEC environment variable and then the registry default
    #: ("raw").  Codecs are lossless, so this never changes the BFS
    #: result — only simulated communication bytes/seconds.
    codec: str | None = None

    def __post_init__(self) -> None:
        if self.summary_granularity < 64 or self.summary_granularity % 64:
            raise ConfigError(
                "summary_granularity must be a positive multiple of 64"
            )
        if self.parallel_allgather and self.sharing is not SharingVariant.ALL:
            raise ConfigError(
                "parallel_allgather builds on 'Share all' "
                "(set sharing=SharingVariant.ALL as the paper's stack does)"
            )
        if self.codec is not None and self.codec not in available_codecs():
            raise ConfigError(
                f"unknown frontier codec {self.codec!r}; available: "
                f"{', '.join(available_codecs())}"
            )
        if (
            self.allgather is not None
            and self.allgather in _SHARED_FAMILY
            and self.sharing is SharingVariant.PRIVATE
        ):
            raise ConfigError(
                f"allgather={self.allgather.value} needs node-shared "
                f"buffers; pick a non-PRIVATE sharing variant"
            )

    # ---- derived ----------------------------------------------------------

    @property
    def shares_in_queue(self) -> bool:
        """True when in_queue lives in node-shared memory."""
        return self.sharing is not SharingVariant.PRIVATE

    @property
    def shares_everything(self) -> bool:
        """True when out_queue and summaries are shared too."""
        return self.sharing is SharingVariant.ALL

    def in_queue_algorithm(self) -> AllgatherAlgorithm:
        """Allgather algorithm used for the large in_queue payload."""
        if self.allgather is not None:
            return self.allgather
        if self.parallel_allgather:
            return AllgatherAlgorithm.PARALLEL_SHARED
        if self.sharing is SharingVariant.ALL:
            return AllgatherAlgorithm.SHARED_ALL
        if self.sharing is SharingVariant.IN_QUEUE:
            return AllgatherAlgorithm.SHARED_IN
        return AllgatherAlgorithm.DEFAULT

    def summary_algorithm(self) -> AllgatherAlgorithm:
        """Allgather algorithm for the (64x smaller) summary payload.

        Only 'Share all' shares the summaries (III.A.2: "in_queue_summary
        and out_queue_summary can be dealt in the same way"); the parallel
        optimization applies to the in_queue allgather only.
        """
        if self.sharing is SharingVariant.ALL:
            return AllgatherAlgorithm.SHARED_ALL
        return AllgatherAlgorithm.DEFAULT

    def in_queue_placement(self, private: Placement) -> Placement:
        """Memory placement of in_queue under this configuration."""
        return Placement.NODE_SHARED if self.shares_in_queue else private

    def summary_placement(self, private: Placement) -> Placement:
        """Memory placement of the summary under this configuration."""
        return (
            Placement.NODE_SHARED if self.shares_everything else private
        )

    # ---- presets ----------------------------------------------------------

    @classmethod
    def private(cls, **kwargs) -> "CommConfig":
        """The 'Original' variants: everything rank-private."""
        return cls(sharing=SharingVariant.PRIVATE, **kwargs)

    @classmethod
    def shared_in_queue(cls, **kwargs) -> "CommConfig":
        """'Share in_queue' (Fig. 5b)."""
        return cls(sharing=SharingVariant.IN_QUEUE, **kwargs)

    @classmethod
    def shared_all(cls, **kwargs) -> "CommConfig":
        """'Share all': sources and summaries shared too."""
        return cls(sharing=SharingVariant.ALL, **kwargs)

    @classmethod
    def parallel(cls, **kwargs) -> "CommConfig":
        """'Par allgather': Fig. 7 on top of 'Share all'."""
        return cls(
            sharing=SharingVariant.ALL, parallel_allgather=True, **kwargs
        )


_SHARED_FAMILY = (
    AllgatherAlgorithm.SHARED_IN,
    AllgatherAlgorithm.SHARED_ALL,
    AllgatherAlgorithm.PARALLEL_SHARED,
    AllgatherAlgorithm.MULTI_LEADER,
)


@dataclass(frozen=True)
class BFSConfig:
    """All knobs of one BFS execution."""

    # NUMA mapping (Section II.D / Fig. 10).
    ppn: int | None = None  # None = one process per socket
    binding: BindingPolicy = BindingPolicy.BIND_TO_SOCKET

    # Communication: sharing variant, allgather schedule, summary
    # granularity, frontier codec (Sections III.A-C + PR 3) — one
    # consolidated sub-config.
    comm: CommConfig = CommConfig()

    # Kernel backend selection (repro.core.kernels).  None defers to the
    # REPRO_KERNEL environment variable and then the registry default
    # ("activeset").  All backends are bit-identical on the paper's
    # accounting, so this knob never changes a priced result.
    kernel: str | None = None

    # Extension beyond the paper: balance the 1-D partition by edge mass
    # instead of vertex count, reducing the stall (load-imbalance) phase.
    degree_balanced: bool = False

    # The paper runs the OpenMP dynamic scheduler inside each rank to
    # avoid intra-rank load imbalance (IV.C); turning it off prices the
    # static-chunking penalty on the skewed per-vertex work.
    omp_dynamic: bool = True

    # Hybrid direction policy (Beamer et al.): switch to bottom-up when
    # frontier edges exceed unexplored edges / alpha, and back to top-down
    # when frontier vertices drop below n / beta.
    mode: TraversalMode = TraversalMode.HYBRID
    alpha: float = 14.0
    beta: float = 24.0

    label: str = "custom"

    def __post_init__(self) -> None:
        try:
            # A string mode must not slip through: the direction policy
            # compares members by identity.
            object.__setattr__(self, "mode", TraversalMode(self.mode))
        except ValueError:
            raise ConfigError(
                f"unknown traversal mode {self.mode!r}; valid: "
                f"{', '.join(m.value for m in TraversalMode)}"
            ) from None
        self._validate()

    def _validate(self) -> None:
        if self.ppn is not None and self.ppn < 1:
            raise ConfigError("ppn must be positive")
        if not isinstance(self.comm, CommConfig):
            raise ConfigError("comm must be a CommConfig")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha/beta must be positive")

    # ---- comm conveniences ---------------------------------------------------
    # Read-only views over ``comm`` so call sites (and the paper's
    # vocabulary) keep working; the settings themselves live on the
    # CommConfig only.

    @property
    def share_in_queue(self) -> bool:
        """True when in_queue is node-shared (``comm.sharing``)."""
        return self.comm.shares_in_queue

    @property
    def share_all(self) -> bool:
        """True under the 'Share all' variant (``comm.sharing``)."""
        return self.comm.shares_everything

    @property
    def parallel_allgather(self) -> bool:
        """Fig. 7 parallel subgroup allgather (``comm.parallel_allgather``)."""
        return self.comm.parallel_allgather

    @property
    def granularity(self) -> int:
        """Summary granularity (``comm.summary_granularity``)."""
        return self.comm.summary_granularity

    @property
    def use_summary(self) -> bool:
        """Whether the in_queue summary exists (``comm.use_summary``)."""
        return self.comm.use_summary

    @property
    def shares_in_queue(self) -> bool:
        """True when in_queue lives in node-shared memory."""
        return self.comm.shares_in_queue

    @property
    def shares_everything(self) -> bool:
        """True when out_queue and summaries are shared too."""
        return self.comm.shares_everything

    def resolve_ppn(self, cluster: ClusterSpec) -> int:
        """Processes per node (defaults to one per socket)."""
        return cluster.node.sockets if self.ppn is None else self.ppn

    def count_key(self, cluster: ClusterSpec, constants=None) -> tuple:
        """The settings that decide what a traversal does, resolved.

        Two runs from one root of one graph whose keys are equal produce
        byte-identical parent arrays and :class:`~repro.core.counts.RunCounts`:
        the key holds the rank count, the partition rule, the direction
        policy, the summary layout, and the codec and kernel names as
        ``REPRO_CODEC``/``REPRO_KERNEL`` resolve them.  Every other
        setting (binding, sharing, the allgather schedule, ``omp_dynamic``,
        ``label``, the cluster's node model and weak nodes, the cost
        ``constants``) only prices the run (see :data:`PRICE_ONLY_FIELDS`).
        The ``auto`` codec is the exception: its per-level choice reads
        the cost model, so under ``auto`` the whole communication block,
        the binding, ``repr(cluster)`` and the constants join the key.
        """
        codec = resolve_codec(self).name
        key = (
            cluster.nodes * self.resolve_ppn(cluster),
            self.degree_balanced,
            self.mode,
            self.alpha,
            self.beta,
            self.comm.summary_granularity,
            self.comm.use_summary,
            codec,
            resolve_backend(self).name,
        )
        if codec == "auto":
            key += (self.comm, self.binding, repr(cluster), repr(constants))
        return key

    def in_queue_algorithm(self) -> AllgatherAlgorithm:
        """Allgather algorithm for in_queue (``comm.in_queue_algorithm``)."""
        return self.comm.in_queue_algorithm()

    def summary_algorithm(self) -> AllgatherAlgorithm:
        """Allgather algorithm for the summary (``comm.summary_algorithm``)."""
        return self.comm.summary_algorithm()

    def in_queue_placement(self, private: Placement) -> Placement:
        """Memory placement of in_queue under this configuration."""
        return self.comm.in_queue_placement(private)

    def summary_placement(self, private: Placement) -> Placement:
        """Memory placement of the summary under this configuration."""
        return self.comm.summary_placement(private)

    def named(self, label: str) -> "BFSConfig":
        """Copy of this configuration with a display label."""
        return replace(self, label=label)

    # ---- paper presets --------------------------------------------------------

    @classmethod
    def original_ppn1(cls, binding: BindingPolicy = BindingPolicy.INTERLEAVE):
        """'Original.ppn=1': one process per node, interleaved memory."""
        return cls(ppn=1, binding=binding, label="Original.ppn=1")

    @classmethod
    def original_ppn8(cls):
        """'Original.ppn=8': one process per socket, bound."""
        return cls(label="Original.ppn=8")

    @classmethod
    def share_in_queue_variant(cls):
        """'Share in_queue': node-shared in_queue (no broadcast step)."""
        return cls(comm=CommConfig.shared_in_queue(), label="Share in_queue")

    @classmethod
    def share_all_variant(cls):
        """'Share all': out_queue and summaries shared too (no gather)."""
        return cls(comm=CommConfig.shared_all(), label="Share all")

    @classmethod
    def par_allgather_variant(cls):
        """'Par allgather': the Fig. 7 parallel-subgroup allgather."""
        return cls(comm=CommConfig.parallel(), label="Par allgather")

    @classmethod
    def granularity_variant(cls, granularity: int = 256):
        """The full stack with a chosen summary granularity."""
        return cls(
            comm=CommConfig.parallel(summary_granularity=granularity),
            label=f"Granularity={granularity}",
        )


#: The :class:`BFSConfig` and :class:`CommConfig` fields that
#: :meth:`BFSConfig.count_key` reads (``ppn`` through the rank count,
#: ``codec`` and ``kernel`` resolved).
COUNT_KEY_FIELDS = (
    "ppn",
    "degree_balanced",
    "mode",
    "alpha",
    "beta",
    "summary_granularity",
    "use_summary",
    "codec",
    "kernel",
)

#: The fields that never change a traversal's parent array or counts,
#: only its price.  Every field is in exactly one of the two tuples.
PRICE_ONLY_FIELDS = (
    "binding",
    "omp_dynamic",
    "label",
    "sharing",
    "parallel_allgather",
    "allgather",
)


def paper_variants(best_granularity: int = 256) -> dict[str, BFSConfig]:
    """The Fig. 9 optimization stack, in order."""
    return {
        "Original.ppn=1": BFSConfig.original_ppn1(),
        "Original.ppn=8": BFSConfig.original_ppn8(),
        "Share in_queue": BFSConfig.share_in_queue_variant(),
        "Share all": BFSConfig.share_all_variant(),
        "Par allgather": BFSConfig.par_allgather_variant(),
        "Granularity": BFSConfig.granularity_variant(best_granularity),
    }
