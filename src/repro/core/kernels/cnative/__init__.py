"""The native compiled (`cnative`) kernel backend.

A thin ctypes wrapper over ``bfs_kernels.c`` (compiled and cached by
:mod:`repro.core.kernels.cnative.build`): the bottom-up scan runs the
*true* per-vertex early-exit loop — summary-bitmap probe, first-hit
break, zero temporaries — for every rank of a level in one call,
directly on the numpy buffers (no copies); a batch runs it once per
lane.  The top-down step is one call per level too, for every rank and
lane: expansion, per-sender dedup, the receivers' discovery and the next
frontiers' order, fused so no (child, parent) pair is ever materialized.
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
from repro.core.kernels.cnative import build
from repro.core.kernels.cnative.build import _ptr, _td_scratch_words
from repro.errors import ConfigError

__all__ = ["CNativeBackend", "build"]


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
