"""The active-set (chunked early-exit) kernel backend.

The paper's bottom-up phase is cheap because each unvisited vertex's
scan *early-exits* at its first frontier neighbour — on mid-BFS levels
the average examined prefix is a handful of edges, while total candidate
degree is nearly all ``2E`` local arcs.  The reference backend
nevertheless materializes the full adjacency.  This backend instead
processes candidates in degree-bounded chunks (*wavefront peeling*):

1. every still-active candidate contributes its next ``width`` untested
   neighbours to a dense ``(active, width)`` wavefront (short rows are
   padded by clamping to the row's last edge — see below);
2. the wavefront is tested (summary first, then ``in_queue`` only where
   the summary bit is set — a summary bit covers the base bit, so a zero
   block proves a miss);
3. candidates whose row contained a hit retire with that neighbour as
   parent; candidates with adjacency left stay active; ``width`` doubles
   so the rounds for a degree-``d`` holdout are ``O(log d)``.

The dense layout is what makes the rounds cheap: the per-row first hit
is a contiguous ``argmax``, with no segmented searchsorted and no
``repeat`` expansions.  Padding is correct by construction — a padded
cell duplicates the bit of its row's *last real* edge, so it can only
repeat a hit that exists earlier in the row (never create the first
one), and the examined/read counts are always clipped to the row's real
length.

Memory stays bounded: a candidate surviving to round ``k`` has already
consumed ``width₀·(2^k - 1)`` edges, so each round's padding is smaller
than the edges its survivors already examined.  Per-round temporaries
are ``O(active · width)`` and total gathered cells are ``O(examined)``
— memory and bitmap probes scale with the *examined* edges of the level
rather than the total candidate degree.  All Section II.B.2 accounting
is bit-identical to the reference backend; only the
``gathered_edges``/``chunk_rounds`` diagnostics differ.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    register_backend,
    scan_rank_slices,
)
from repro.errors import ConfigError
from repro.util import bitops

__all__ = ["ActiveSetBackend"]


@register_backend
class ActiveSetBackend(KernelBackend):
    """Chunked bottom-up scan that retires candidates at their first hit."""

    name = "activeset"

    #: First-round chunk width (edges tested per candidate per round).
    #: Mid-BFS candidates retire after one or two edges, so the first
    #: round stays tiny; doubling covers heavy holdouts in O(log d).
    DEFAULT_CHUNK = 2
    #: Upper bound on the doubled chunk width, so one giant-degree hub
    #: cannot force a wavefront as large as the full-materialization path.
    MAX_CHUNK = 1 << 16

    def __init__(self, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ConfigError(f"kernel chunk must be >= 1, got {chunk}")
        self.chunk = int(chunk)

    @classmethod
    def from_config(cls, config) -> "ActiveSetBackend":
        """Instance honouring ``BFSConfig.kernel_chunk``."""
        if config is None:
            return cls()
        return cls(chunk=config.kernel_chunk)

    def bottom_up_scan(
        self, graph, parent, in_queue, summary, bounds
    ) -> BottomUpResult:
        """Scan each rank's candidates in early-exiting chunks."""
        return scan_rank_slices(
            self._scan, graph, parent, in_queue, summary, bounds
        )

    def _scan(self, graph, cand, in_queue, summary):
        ncand = int(cand.size)
        starts = graph.offsets[cand]
        degs = (graph.offsets[cand + 1] - starts).astype(np.int64)
        last = starts + degs - 1  # clamp target for row padding

        found = np.zeros(ncand, dtype=bool)
        first_parent = np.empty(ncand, dtype=np.int64)
        examined_total = 0
        inqueue_reads = 0
        gathered = 0
        rounds = 0

        # Indices into the candidate arrays of not-yet-retired candidates
        # (always ascending, so retirement order matches candidate order).
        active = np.arange(ncand, dtype=np.int64)
        progress = np.zeros(ncand, dtype=np.int64)  # edges already tested
        width = self.chunk
        while active.size:
            rounds += 1
            done = progress[active]
            rem = degs[active] - done
            w = int(min(width, int(rem.max())))
            col = np.arange(w, dtype=np.int64)
            # Dense (active, w) wavefront; short rows repeat their last
            # real edge, which can never fabricate a row's first hit.
            pos = done[:, None] + col[None, :]
            pos += starts[active][:, None]
            np.minimum(pos, last[active][:, None], out=pos)
            neighbors = graph.targets[pos]
            row_len = np.minimum(rem, w)  # real (unpadded) cells per row
            gathered += int(row_len.sum())

            if summary is None:
                hits = bitops.get_bits(
                    in_queue.words, neighbors.ravel()
                ).reshape(neighbors.shape)
            else:
                # Probe in_queue only where the summary bit is set: the
                # summary covers the base bitmap, so a zero block proves
                # the neighbour is not in the frontier.
                summary_hits = bitops.get_bits(
                    summary.words, neighbors.ravel() // summary.granularity
                )
                hits = np.zeros(neighbors.size, dtype=bool)
                probe = np.flatnonzero(summary_hits)
                if probe.size:
                    hits[probe] = bitops.get_bits(
                        in_queue.words, neighbors.ravel()[probe]
                    )
                hits = hits.reshape(neighbors.shape)

            first_rel = hits.argmax(axis=1)
            has_hit = hits[np.arange(active.size), first_rel]
            # Early-exit count within this chunk: hit position inclusive,
            # or every real cell when the whole row missed.
            cnt = np.where(has_hit, first_rel + 1, row_len)
            examined_total += int(cnt.sum())
            if summary is None:
                # Every examined edge reads in_queue directly.
                inqueue_reads += int(cnt.sum())
            else:
                # Summary-filtered reads within each early-exit prefix —
                # the same per-edge predicate as the reference accounting,
                # restricted to this chunk's slice of the prefix.  The
                # prefix mask also excludes padded cells (cnt <= row_len).
                within_prefix = col[None, :] < cnt[:, None]
                inqueue_reads += int(
                    np.count_nonzero(
                        summary_hits.reshape(neighbors.shape) & within_prefix
                    )
                )

            rows = np.flatnonzero(has_hit)
            hit_idx = active[rows]
            found[hit_idx] = True
            first_parent[hit_idx] = neighbors[rows, first_rel[rows]]

            progress[active] = done + row_len
            live = ~has_hit & (rem > w)
            active = active[live]
            width = min(width * 2, self.MAX_CHUNK)

        return (
            found, first_parent[found], examined_total, inqueue_reads,
            gathered, rounds,
        )
