"""Segmented (per-CSR-row) operations over flat edge arrays.

The bottom-up BFS step needs, for every unvisited vertex ``v`` with adjacency
slice ``adj[offsets[v]:offsets[v+1]]``, the *first* neighbour that lies in the
current frontier (its parent) and the number of edges that an early-exiting
scan would have examined.  Doing this per vertex in Python would be hopeless;
these helpers express the same computation as a handful of numpy passes over
the concatenated edge array.

Segments are described by an ``offsets`` array of length ``nseg + 1`` with
``offsets[0] == 0`` and ``offsets[-1] == n`` where ``n`` is the length of the
flat value array.  Empty segments are allowed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "segment_ids",
    "segment_first_true",
    "segment_any",
    "segment_sums",
    "segment_counts_until_first_true",
    "segment_first_true_and_counts",
    "AdjacencyGather",
    "gather_adjacency",
]


def _check_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a 1-D array with at least one entry")
    if offsets[0] != 0 or offsets[-1] != n:
        raise ValueError(
            f"offsets must start at 0 and end at {n}, got {offsets[0]}..{offsets[-1]}"
        )
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    return offsets


def segment_ids(offsets: np.ndarray, n: int | None = None) -> np.ndarray:
    """Segment index of every flat element.

    ``segment_ids([0, 2, 2, 5]) == [0, 0, 2, 2, 2]``.
    """
    if n is None:
        n = int(np.asarray(offsets)[-1])
    offsets = _check_offsets(offsets, n)
    nseg = offsets.size - 1
    lengths = np.diff(offsets)
    return np.repeat(np.arange(nseg, dtype=np.int64), lengths)


def segment_first_true(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Flat index of the first True element in each segment, or -1.

    Returns an int64 array of length ``nseg``.
    """
    mask = np.asarray(mask, dtype=bool)
    offsets = _check_offsets(offsets, mask.size)
    nseg = offsets.size - 1
    out = np.full(nseg, -1, dtype=np.int64)
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return out
    # For each segment, the first hit is the first element of `hits` that is
    # >= offsets[s]; it belongs to the segment iff it is < offsets[s + 1].
    pos = np.searchsorted(hits, offsets[:-1], side="left")
    valid = pos < hits.size
    cand = np.where(valid, hits[np.minimum(pos, hits.size - 1)], -1)
    in_seg = valid & (cand < offsets[1:])
    out[in_seg] = cand[in_seg]
    return out


def segment_any(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Boolean per segment: does the segment contain any True element?"""
    return segment_first_true(mask, offsets) >= 0


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of values within each segment (empty segments sum to 0)."""
    values = np.asarray(values)
    offsets = _check_offsets(offsets, values.size)
    if values.size == 0:
        return np.zeros(offsets.size - 1, dtype=np.int64)
    csum = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def segment_counts_until_first_true(
    mask: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Number of elements an early-exiting scan examines per segment.

    A scan over segment ``s`` examines elements in order and stops at the
    first True element (inclusive).  If the segment has no True element the
    whole segment is examined.  This models the bottom-up BFS early exit:
    the parent search stops at the first neighbour found in the frontier.
    """
    return segment_first_true_and_counts(mask, offsets)[1]


def segment_first_true_and_counts(
    mask: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused :func:`segment_first_true` + early-exit examined counts.

    The two quantities share all their intermediate work (the hit search
    and the segment geometry), so the bottom-up kernels ask for them in
    one call rather than running the hit search twice.  Returns
    ``(first, examined)``: the flat index of each segment's first True
    element (-1 when none) and the number of elements an early-exiting
    scan examines (first-hit position inclusive, or the full segment when
    there is no hit).
    """
    mask = np.asarray(mask, dtype=bool)
    offsets = _check_offsets(offsets, mask.size)
    first = segment_first_true(mask, offsets)
    examined = np.diff(offsets)
    found = first >= 0
    examined[found] = first[found] - offsets[:-1][found] + 1
    return first, examined


class AdjacencyGather(NamedTuple):
    """Flattened CSR adjacency of a set of vertices.

    ``pos`` indexes the local ``targets`` array (so ``targets[pos]`` is the
    concatenated adjacency), ``seg_offsets`` delimits per-vertex segments
    in the flat arrays, and ``lens`` is each vertex's degree.
    """

    pos: np.ndarray
    seg_offsets: np.ndarray
    lens: np.ndarray


def gather_adjacency(
    offsets: np.ndarray, vertices: np.ndarray
) -> AdjacencyGather:
    """Flatten the CSR rows of ``vertices`` into one index array.

    This is the shared flattening step of the top-down and bottom-up
    kernels: a flat element's CSR position is its flat index shifted by
    (row start - segment start), so one ``repeat`` expansion suffices.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = offsets[vertices]
    lens = offsets[vertices + 1] - starts
    seg_offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    pos = np.arange(int(seg_offsets[-1]), dtype=np.int64)
    pos += np.repeat(starts - seg_offsets[:-1], lens)
    return AdjacencyGather(pos=pos, seg_offsets=seg_offsets, lens=lens)
