"""The reference (full-materialization) kernel backend.

This is the repo's original vectorized bottom-up scan, kept as the
accounting *oracle*: it flattens the **entire** adjacency of every
candidate into one array and computes the early-exit counts over it with
the segmented helpers.  Per-level temporary memory is therefore
proportional to the total candidate degree (nearly all ``2E`` local arcs
on mid-BFS levels), which is exactly what the active-set backend
(:mod:`repro.core.kernels.activeset`) avoids — but its very simplicity
makes it the ground truth the equivalence tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    register_backend,
    scan_rank_slices,
)
from repro.util.segments import gather_adjacency, segment_first_true_and_counts

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(KernelBackend):
    """Full-materialization kernels — simple, memory-hungry, and the oracle."""

    name = "reference"

    def bottom_up_scan(
        self, graph, parent, in_queue, summary, bounds
    ) -> BottomUpResult:
        """Scan each rank by materializing its candidates' full adjacency."""
        return scan_rank_slices(
            self._scan, graph, parent, in_queue, summary, bounds
        )

    @staticmethod
    def _scan(graph, cand, in_queue, summary):
        gather = gather_adjacency(graph.offsets, cand)
        total = int(gather.seg_offsets[-1])
        neighbors = graph.targets[gather.pos]

        hits = in_queue.test(neighbors)
        first, examined = segment_first_true_and_counts(
            hits, gather.seg_offsets
        )
        found = first >= 0
        examined_total = int(examined.sum())
        if summary is None:
            # Without the summary structure every examined edge reads in_queue.
            inqueue_reads = examined_total
        else:
            # Edges inside the early-exit prefix whose summary block is
            # non-empty: only those fall through to the in_queue word read.
            within_prefix = np.arange(total) < np.repeat(
                gather.seg_offsets[:-1] + examined, gather.lens
            )
            summary_hits = summary.test_vertices(neighbors)
            inqueue_reads = int(np.count_nonzero(within_prefix & summary_hits))
        return (
            found, neighbors[first[found]], examined_total, inqueue_reads,
            total, 1 if total else 0,
        )
