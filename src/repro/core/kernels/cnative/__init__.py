"""The native compiled (`cnative`) kernel backend.

A thin ctypes wrapper over ``bfs_kernels.c`` (compiled and cached by
:mod:`repro.core.kernels.cnative.build`): the bottom-up scan runs the
*true* per-vertex early-exit loop — summary-bitmap probe, first-hit
break, zero temporaries — for every rank of a level in one call,
directly on the numpy buffers (no copies),
and the batched scan runs the same loop once for up to 64 sources on
``uint64`` lane words it packs itself (:func:`lane_scan`).  The top-down
step is one call per level too, for every rank and lane: expansion,
per-sender dedup, the receivers' discovery and the next frontiers'
order, fused so no (child, parent) pair is ever materialized.
Accounting is bit-identical to the reference backend; see
docs/PERFORMANCE.md for the algorithm sketches and the
build/cache/fallback semantics.

The class always registers so the name shows up in
``available_backends()`` and the benchmark matrix; whether it can
actually *run* is a separate, lazily-probed question
(:meth:`CNativeBackend.availability`), and resolution falls back to
``activeset`` with a structured warning when the answer is no.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    TopDownResult,
    register_backend,
)
from repro.core.kernels.batched import MAX_LANES, LaneScanResult
from repro.core.kernels.cnative import build
from repro.core.kernels.cnative.build import _ptr, _td_scratch_words
from repro.errors import ConfigError

__all__ = ["CNativeBackend", "build", "lane_scan"]


def lane_scan(
    lg,
    active_lanes: np.ndarray,
    inq_lanes: np.ndarray,
    summary_lanes: np.ndarray | None,
    granularity: int,
    *,
    groups: np.ndarray | None = None,
    num_groups: int = 1,
) -> LaneScanResult:
    """The native lane scan: :func:`repro.core.kernels.batched.lane_scan`'s
    contract and result, computed by one C pass (``repro_lane_scan``).

    Lane words of any unsigned dtype are widened to ``uint64``; the count
    arrays always come back ``(num_groups, 64)``.  Unlike the numpy scan
    the C loop probes the summary *before* reading ``inq_lanes`` (as the
    paper's kernel does), so ``summary_lanes`` must cover ``inq_lanes`` —
    a lane's block bit set wherever one of the block's vertices is.
    """
    lib = build.load_library()
    # Keep every buffer referenced in a local for the call's duration.
    offsets = np.ascontiguousarray(lg.offsets, dtype=np.int64)
    targets = np.ascontiguousarray(lg.targets, dtype=np.int64)
    act = np.ascontiguousarray(active_lanes, dtype=np.uint64)
    inq = np.ascontiguousarray(inq_lanes, dtype=np.uint64)
    n = act.size
    if offsets.size != n + 1:
        raise ConfigError(
            f"{n} active lane words for a CSR of {offsets.size - 1} rows"
        )
    if summary_lanes is None:
        summary, summary_ptr, granularity = None, None, 0
    else:
        summary = np.ascontiguousarray(summary_lanes, dtype=np.uint64)
        summary_ptr = _ptr(summary)
        if granularity < 1 or summary.size * granularity < inq.size:
            raise ConfigError(
                f"{summary.size} summary blocks of {granularity} vertices "
                f"do not cover {inq.size} lane words"
            )
    if groups is None:
        grp, grp_ptr = None, None
    else:
        grp = np.ascontiguousarray(groups, dtype=np.int64)
        grp_ptr = _ptr(grp)
        if grp.size != n or (
            n and not 0 <= int(grp.min()) <= int(grp.max()) < num_groups
        ):
            raise ConfigError(
                f"groups must assign each of {n} rows one of "
                f"{num_groups} groups"
            )

    # candidates, examined, skipped (examined on a zero summary bit).
    counts = np.zeros((3, num_groups, MAX_LANES), dtype=np.int64)
    # Discoveries cannot outnumber the (vertex, lane) candidate pairs;
    # pages of the buffers the scan never reaches are never touched.
    capacity = lib.repro_lane_popcount(n, _ptr(act))
    tmp_hit = np.empty(capacity, dtype=np.uint64)
    tmp = np.empty((2, capacity), dtype=np.int64)
    disc = np.empty((3, capacity), dtype=np.int64)
    found = lib.repro_lane_scan(
        n, _ptr(offsets), _ptr(targets), _ptr(act), _ptr(inq),
        summary_ptr, granularity, grp_ptr, num_groups, _ptr(counts),
        _ptr(tmp_hit), _ptr(tmp[0]), _ptr(tmp[1]),
        _ptr(disc[0]), _ptr(disc[1]), _ptr(disc[2]),
    )
    return LaneScanResult(
        candidates=counts[0],
        examined_edges=counts[1],
        inqueue_reads=counts[1] - counts[2],
        disc_lane=disc[0, :found],
        disc_local=disc[1, :found],
        disc_parent=disc[2, :found],
        # Like the single-source loop: nothing materialized, one pass.
        gathered_edges=0,
        chunk_rounds=1,
    )


@register_backend
class CNativeBackend(KernelBackend):
    """Compiled C kernels behind ctypes — fastest backend when a
    toolchain is available, gracefully absent when not."""

    name = "cnative"

    @classmethod
    def availability(cls) -> tuple[bool, str | None]:
        """Delegate to the build machinery's (memoized) probe."""
        return build.availability()

    def bottom_up_scan(
        self, graph, parent, in_queue, summary, bounds
    ) -> BottomUpResult:
        """The whole level in one C call (``repro_bu_scan``).

        The C side loops the ranks itself: candidate selection, the
        early-exit walk, the ``parent`` writes and the rebase of each
        rank's discoveries to global ids all happen there, zero-copy on
        the global CSR, parent array and bitmaps.
        """
        lib = build.load_library()
        offsets, targets, n = graph.offsets, graph.targets, parent.size
        # Keep every buffer referenced in a local for the call's duration.
        inq = np.ascontiguousarray(in_queue.words)
        if summary is None:
            summary_words, summary_ptr, granularity = None, None, 0
        else:
            summary_words = np.ascontiguousarray(summary.words)
            summary_ptr, granularity = _ptr(summary_words), summary.granularity
        if (
            any(
                a.dtype != np.int64 or not a.flags.c_contiguous
                for a in (offsets, targets, parent, bounds)
            )
            or offsets.size != n + 1 or in_queue.nbits < n
            or (summary is not None and summary.nbits < n)
            or bounds.size < 2 or bounds[0] < 0 or bounds[-1] > n
            or np.any(bounds[1:] < bounds[:-1])
        ):
            raise ConfigError(
                f"bottom_up_scan needs C-contiguous int64 CSR, parent and "
                f"bounds arrays over {n} vertices, non-decreasing bounds "
                f"within them and bitmaps covering them"
            )
        ranks = bounds.size - 1
        out_new = np.empty(n, dtype=np.int64)
        counts = np.zeros((4, ranks), dtype=np.int64)
        nfound = lib.repro_bu_scan(
            ranks, _ptr(bounds), _ptr(offsets), _ptr(targets),
            _ptr(inq), summary_ptr, granularity,
            _ptr(parent), _ptr(out_new), _ptr(counts),
        )
        # The native loop materializes nothing: it reads the CSR in
        # place and retires candidates inline, in one pass.
        return BottomUpResult(
            out_new[:nfound], *counts, gathered_edges=0, chunk_rounds=1
        )

    def bottom_up_scan_batch(
        self, local, parent, rows, in_queues, summaries,
        groups=None, num_groups=1,
    ) -> LaneScanResult:
        """Batched scan in C: pack the lane words, then :func:`lane_scan`.

        The active words come straight from the sign bits of the
        ``parent`` rows and the frontier words from the published
        bitmaps' set bits — no per-lane boolean arrays in between.
        """
        lib = build.load_library()
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        offsets = np.ascontiguousarray(local.offsets, dtype=np.int64)
        lanes, n = rows.size, offsets.size - 1
        if (
            parent.dtype != np.int64 or not parent.flags.c_contiguous
            or parent.ndim != 2 or parent.shape[1] != n
            or not 0 < lanes <= MAX_LANES or len(in_queues) != lanes
            or not 0 <= int(rows.min()) <= int(rows.max()) < parent.shape[0]
        ):
            raise ConfigError(
                f"need a C-contiguous int64 (sources, {n}) parent matrix, "
                f"1..{MAX_LANES} of its rows and one in_queue per row"
            )
        active = np.empty(n, dtype=np.uint64)
        lib.repro_lane_active(
            n, lanes, _ptr(parent), _ptr(rows), _ptr(offsets), _ptr(active)
        )
        inq = self._pack(lib, in_queues)[: in_queues[0].nbits]
        if summaries is None:
            summary, granularity = None, 0
        else:
            summary = self._pack(lib, summaries)[: summaries[0].nblocks]
            granularity = summaries[0].granularity
        return lane_scan(
            local, active, inq, summary, granularity,
            groups=groups, num_groups=num_groups,
        )

    def top_down_expand(
        self, graph, frontiers, parent, rows, owner_of, bounds
    ) -> TopDownResult:
        """The whole top-down level in one C call (``repro_td_step``).

        Expansion, per-(lane, sender) dedup, the receivers'
        lowest-sender-wins discovery and the next frontiers' (owner,
        sender, child) order all happen there, zero-copy on the global
        CSR and parent table, with O(n) scratch and no pair arrays.
        Owners come from ``bounds`` (``owner_of`` is not read).  The C
        side checks the frontiers' range and rank-major order, the rows
        and the bounds before it writes anything.
        """
        lib = build.load_library()
        offsets, targets = graph.offsets, graph.targets
        n, lanes, ranks = offsets.size - 1, len(frontiers), bounds.size - 1
        # rows | front_cuts | out_cuts, one int64 table for the C call.
        table = np.zeros(3 * lanes + 2, dtype=np.int64)
        if lanes == 1:
            front = frontiers[0]
            table[2] = front.size
        else:
            front = np.concatenate(frontiers)
            np.cumsum(
                [f.size for f in frontiers], out=table[lanes + 1:2 * lanes + 1]
            )
        if (
            any(
                a.dtype != np.int64 or not a.flags.c_contiguous
                for a in (offsets, targets, parent, bounds, front)
            )
            or parent.ndim != 2 or parent.shape[1] != n
            or len(rows) != lanes or ranks < 1
        ):
            raise ConfigError(
                f"top_down_expand needs C-contiguous int64 CSR, bounds and "
                f"frontiers, a (sources, {n}) int64 parent table and one "
                f"row per frontier"
            )
        table[:lanes] = rows
        scratch = np.zeros(_td_scratch_words(n, ranks, lanes), np.int64)
        out = np.empty(lanes * n, dtype=np.int64)
        found = lib.repro_td_step(
            n, _ptr(offsets), _ptr(targets), ranks, _ptr(bounds), lanes,
            _ptr(front), _ptr(table), parent.shape[0], _ptr(parent),
            _ptr(scratch), _ptr(out),
        )
        if found < 0:
            raise ConfigError(
                f"top_down_expand needs bounds tiling [0, {n}), rows inside "
                f"the parent table and rank-major frontiers of vertex ids"
            )
        cuts = table[2 * lanes + 1:].tolist()
        lr = lanes * ranks
        # A copy, so the level records do not pin the O(n) scratch.
        counts = scratch[:lr * (ranks + 2)].copy()
        return TopDownResult(
            frontiers=[out[cuts[b]:cuts[b + 1]] for b in range(lanes)],
            examined_edges=counts[:lr].reshape(lanes, ranks),
            send_bytes=counts[lr:-lr].reshape(lanes, ranks, ranks),
            disc_degree=counts[-lr:].reshape(lanes, ranks),
        )

    @staticmethod
    def _pack(lib, bitmaps) -> np.ndarray:
        """Lane words from one (summary) bitmap per lane."""
        words = np.stack([bm.words for bm in bitmaps])
        out = np.empty(words.shape[1] * 64, dtype=np.uint64)
        lib.repro_lane_pack(
            words.shape[1], words.shape[0], _ptr(words), _ptr(out)
        )
        return out
