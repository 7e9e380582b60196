"""The native compiled (`cnative`) kernel backend.

A thin ctypes wrapper over ``bfs_kernels.c`` (compiled and cached by
:mod:`repro.core.kernels.cnative.build`): the bottom-up scan runs the
*true* per-vertex early-exit loop — summary-bitmap probe, first-hit
break, zero temporaries — directly on the numpy buffers (no copies).
The top-down expansion is the shared rank-global one every backend
inherits.  Accounting is bit-identical to the reference backend; see
docs/PERFORMANCE.md for the algorithm sketch and the
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
    register_backend,
)
from repro.core.kernels.cnative import build
from repro.core.kernels.cnative.build import _i64, _u64

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

    def bottom_up_scan(self, state, in_queue, summary) -> BottomUpResult:
        """Scan with the native fused loop (one C call per level).

        Candidate selection, the early-exit walk and the discovery
        writes all happen inside the C pass, directly on
        ``state.parent`` (zero-copy); only the ``unexplored_degree``
        bookkeeping — returned as a counter — is applied here.
        """
        lib = build.load_library()
        lg = state.local
        nlocal = int(lg.num_local_vertices)

        # Keep every buffer referenced in a local for the call's duration.
        offsets = np.ascontiguousarray(lg.offsets, dtype=np.int64)
        targets = np.ascontiguousarray(lg.targets, dtype=np.int64)
        inq_words = np.ascontiguousarray(in_queue.words, dtype=np.uint64)
        parent = state.parent
        assert parent.dtype == np.int64 and parent.flags.c_contiguous
        if summary is None:
            summary_words, summary_ptr, granularity = None, None, 0
        else:
            summary_words = np.ascontiguousarray(
                summary.words, dtype=np.uint64
            )
            summary_ptr = _u64(summary_words)
            granularity = int(summary.granularity)
        out_new = np.empty(nlocal, dtype=np.int64)
        counts = np.zeros(4, dtype=np.int64)

        nfound = lib.repro_bu_scan(
            nlocal, _i64(offsets), _i64(targets),
            _u64(inq_words), summary_ptr, granularity,
            _i64(parent), _i64(out_new), _i64(counts),
        )
        state.unexplored_degree -= int(counts[3])

        return BottomUpResult(
            new_local=out_new[:nfound],
            candidates=int(counts[0]),
            examined_edges=int(counts[1]),
            inqueue_reads=int(counts[2]),
            # The native loop materializes nothing: it reads the CSR in
            # place and retires candidates inline, in one pass.
            gathered_edges=0,
            chunk_rounds=1,
        )
