"""Event-count records of a BFS run.

The engine is a *functional* simulator: it executes the real algorithm on
real data and records, per level and per rank, how many of each access
class occurred.  Timing is then a pure function of these counts plus the
machine model (:mod:`repro.core.timing`), which is also what allows the
paper-scale extrapolation in :mod:`repro.model`: counts scale linearly
with the graph, structure sizes are swapped for target-scale ones.

A :class:`RunCounts` stores its levels as columns: a ``(levels,
ranks)`` array per per-rank count, a ``(top-down levels, ranks, ranks)``
stack of alltoallv byte matrices, and a vector per level fact.  Scaling
and pricing work on whole columns; :attr:`RunCounts.levels` gives
read-only :class:`LevelCounts` rows for readers that walk levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["Direction", "LevelCounts", "RunCounts"]


class Direction:
    """Direction labels for BFS levels (string constants)."""
    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"


#: Per-rank counts, each an int64 ``(levels, ranks)`` column.
PER_RANK = (
    "frontier_local", "candidates", "examined_edges", "inqueue_reads",
    "discovered",
)
#: Bottom-up allgather facts, each a ``(levels,)`` column (zero on
#: top-down levels).  Part sizes are uint64 words: whole words as the
#: engine measures them (int64), fractional shares once scaled or
#: synthesized (float64) — rounding a share up would inflate the
#: extrapolated payload by large factors.  The byte columns are float64:
#: raw totals, and the post-codec wire sizes the engine recorded
#: (data-dependent, so recorded rather than recomputed).
GATHER = (
    "inq_part_words", "summary_part_words", "inq_raw_total_bytes",
    "inq_wire_part_bytes", "inq_wire_total_bytes", "summary_raw_total_bytes",
    "summary_wire_part_bytes", "summary_wire_total_bytes",
)


#: Every column of a :class:`RunCounts`: per level its direction
#: (``top_down``, bool), whether it converted the frontier representation
#: first (``switched``, bool), its small collectives (``allreduces``:
#: frontier statistics and termination check), its frontier codec's name
#: (``codec``, object; None: no codec); the per-rank counts; the int64
#: ``(top-down levels, ranks, ranks)`` stack of alltoallv byte matrices;
#: the allgather facts.
COLUMNS = (
    "top_down", "switched", "allreduces", "codec", *PER_RANK,
    "td_send_bytes", *GATHER,
)


@dataclass(frozen=True)
class LevelCounts:
    """One level of a :class:`RunCounts`, as a read-only row.

    Arrays are read-only views of the run's columns; ``td_send_bytes``
    is the level's ``(ranks, ranks)`` alltoallv matrix, None on a
    bottom-up level; ``codec`` is the codec the level's allgathers used
    (None/"raw": no encoding, wire == raw).
    """

    level: int
    direction: str
    switched: bool
    frontier_local: np.ndarray
    candidates: np.ndarray
    examined_edges: np.ndarray
    inqueue_reads: np.ndarray
    discovered: np.ndarray
    td_send_bytes: np.ndarray | None
    inq_part_words: float
    summary_part_words: float
    codec: str | None
    inq_raw_total_bytes: float
    inq_wire_part_bytes: float
    inq_wire_total_bytes: float
    summary_raw_total_bytes: float
    summary_wire_part_bytes: float
    summary_wire_total_bytes: float
    allreduces: int


class RunCounts:
    """All levels of one BFS run, as columns, plus run-level facts.

    The columns are attributes named as in :data:`COLUMNS`.  A recorded
    run is built from its level rows by :meth:`from_rows`, which checks
    the columns' shapes (:meth:`validate`) once; :meth:`scaled` keeps
    them.
    """

    def __init__(
        self,
        num_vertices: int,
        num_ranks: int,
        columns: dict[str, np.ndarray],
        traversed_edges: int = 0,
        visited_vertices: int = 0,
    ) -> None:
        self.num_vertices = num_vertices
        self.num_ranks = num_ranks
        # Undirected input edges inside the root's component (the
        # Graph500 numerator for TEPS).
        self.traversed_edges = traversed_edges
        self.visited_vertices = visited_vertices
        self.__dict__.update(columns)
        self._levels: tuple[LevelCounts, ...] | None = None

    @classmethod
    def from_rows(
        cls, num_vertices: int, num_ranks: int, rows: list[dict]
    ) -> "RunCounts":
        """Stack a run's level rows into columns.

        A row is a dict of the level's :class:`LevelCounts` fields but
        ``level``: its ``direction``, and any of the rest, which default
        to zero (None: no ``codec``, no bottom-up ``td_send_bytes``).
        """
        r = num_ranks
        zero, no_send = np.zeros(r, np.int64), np.zeros((r, r), np.int64)

        def per_level(name, default, dtype) -> np.ndarray:
            return np.array([row.get(name, default) for row in rows], dtype)

        try:
            # One array per kind of count, split into its columns.
            per_rank = np.array(
                [row.get(name, zero) for name in PER_RANK for row in rows],
                np.int64,
            ).reshape(len(PER_RANK), -1, r)
            gather = np.array(
                [row.get(name, 0.0) for name in GATHER[1:] for row in rows],
                np.float64,
            ).reshape(len(GATHER) - 1, -1)
            columns = {
                "top_down": np.array(
                    [row["direction"] == Direction.TOP_DOWN for row in rows],
                    bool,
                ),
                "switched": per_level("switched", False, bool),
                "allreduces": per_level("allreduces", 0, np.int64),
                "codec": per_level("codec", None, object),
                **dict(zip(PER_RANK, per_rank)),
                "td_send_bytes": np.array(
                    [row.get("td_send_bytes", no_send) for row in rows
                     if row["direction"] == Direction.TOP_DOWN],
                    np.int64,
                ).reshape(-1, r, r),
                # Whole part words stay int64, shares go float64.
                "inq_part_words": per_level("inq_part_words", 0, None),
                **dict(zip(GATHER[1:], gather)),
            }
        except ValueError as exc:  # ragged levels
            raise SimulationError(f"level counts do not stack: {exc}") from exc
        counts = cls(num_vertices, num_ranks, columns)
        counts.validate()
        return counts

    def validate(self) -> None:
        """Check every column's shape against the level and rank counts."""
        levels, r = len(self.top_down), self.num_ranks
        want = {
            **dict.fromkeys(PER_RANK, (levels, r)),
            "td_send_bytes": (int(self.top_down.sum()), r, r),
        }
        for name in COLUMNS:
            shape = getattr(self, name).shape
            if shape != want.get(name, (levels,)):
                raise SimulationError(
                    f"count column {name} has shape {shape}, "
                    f"expected {want.get(name, (levels,))}"
                )

    @property
    def num_levels(self) -> int:
        """Number of BFS levels in the run."""
        return len(self.top_down)

    @property
    def levels(self) -> tuple[LevelCounts, ...]:
        """Every level as a read-only :class:`LevelCounts` row, built on
        first access.  Pricing reads the columns, never these."""
        if self._levels is None:
            self._levels = tuple(self._row_views())
        return self._levels

    def _row_views(self):
        def frozen(column: np.ndarray) -> np.ndarray:
            view = column.view()
            view.flags.writeable = False
            return view

        per_rank = {name: frozen(getattr(self, name)) for name in PER_RANK}
        send = iter(frozen(self.td_send_bytes))
        gather = {name: getattr(self, name).tolist() for name in GATHER}
        for i, (td, switched, allreduces, codec) in enumerate(zip(
            self.top_down.tolist(), self.switched.tolist(),
            self.allreduces.tolist(), self.codec.tolist(),
        )):
            yield LevelCounts(
                level=i,
                direction=Direction.TOP_DOWN if td else Direction.BOTTOM_UP,
                switched=switched,
                td_send_bytes=next(send) if td else None,
                codec=codec,
                allreduces=allreduces,
                **{name: col[i] for name, col in per_rank.items()},
                # A top-down level's allgather facts are float zeros.
                **{
                    name: float(col[i]) if td else col[i]
                    for name, col in gather.items()
                },
            )

    def total_examined_edges(self) -> int:
        """Edges examined across all levels and ranks."""
        return int(self.examined_edges.sum())

    def scaled(self, factor: float) -> "RunCounts":
        """The run's counts on a graph ``factor``x larger.

        Totals scale linearly with graph size for a fixed per-level
        frontier-density profile (R-MAT levels are scale-invariant to
        first order; see DESIGN.md §2).  Per-rank *imbalance*, however,
        does not: counts are sums of per-vertex contributions, so their
        relative deviation from the mean shrinks like ``1/sqrt(factor)``
        as each rank's share grows.  Extrapolation therefore shrinks the
        deviations accordingly — otherwise the stall (load-imbalance)
        phase of a tiny measured run would be wildly overstated at paper
        scale.

        Every mean is of integer counts whose sums stay below 2**53, so
        float64 sums them exactly in any order: each level's result is
        bit-identical to scaling that level alone.
        """
        if factor <= 0:
            raise SimulationError("scale factor must be positive")
        shrink = np.sqrt(factor)

        def regress(col: np.ndarray, mean: np.ndarray) -> np.ndarray:
            """``mean * factor + (col - mean) * shrink``, in place."""
            out = np.subtract(col, mean)
            out *= shrink
            out += mean * factor
            return np.maximum(out, 0, out=out)

        def rounded(values: np.ndarray) -> np.ndarray:
            return np.rint(
                values, out=np.empty(values.shape, np.int64), casting="unsafe"
            )

        # The per-rank columns regress in one operation.
        per_rank = np.array([getattr(self, name) for name in PER_RANK])
        per_rank = rounded(
            regress(per_rank, per_rank.mean(axis=2, keepdims=True))
        )

        # Traffic spreads across sender ranks as the frontier grows: on
        # a tiny graph one hub's owner may be the only sender of a level,
        # while at paper scale the same level's frontier is hashed over
        # all ranks.  Off-diagonal entries therefore regress toward their
        # level's mean with the same 1/sqrt law; the (free) self-message
        # diagonal scales linearly.
        send = self.td_send_bytes
        n = self.num_ranks
        ranks = np.arange(n)
        diag = send[:, ranks, ranks]
        if n > 1:
            off_sum = send.sum(axis=(1, 2)) - diag.sum(axis=1)
            scaled_send = regress(send, (off_sum / (n * n - n))[:, None, None])
        else:
            scaled_send = np.empty(send.shape)
        scaled_send[:, ranks, ranks] = diag * factor

        # Compressed payloads are dominated by per-set-bit tokens (RLE
        # runs, sparse gaps), and set bits scale linearly with the graph
        # at fixed frontier density — so wire bytes scale with the same
        # factor as their raw counterparts, keeping the level's
        # compression ratio scale-invariant.
        gather = np.array(
            [getattr(self, name) for name in GATHER], np.float64
        ) * factor

        return RunCounts(
            int(round(self.num_vertices * factor)), n,
            {
                # Per-level facts do not scale: shared, not copied.
                **{
                    name: getattr(self, name)
                    for name in ("top_down", "switched", "allreduces", "codec")
                },
                **dict(zip(PER_RANK, per_rank)),
                "td_send_bytes": rounded(scaled_send),
                **dict(zip(GATHER, gather)),
            },
            int(round(self.traversed_edges * factor)),
            int(round(self.visited_vertices * factor)),
        )
