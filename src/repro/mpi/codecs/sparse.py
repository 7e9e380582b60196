"""Sparse vertex-index codec for low-fill frontiers.

Early and late BFS levels touch a small fraction of the vertex space;
shipping the full bitmap wastes ``nbits/8`` bytes on mostly-zero words.
This codec sends the set-bit positions as a delta-compressed varint
list:

``varint(count) · varint(first position) · varint gaps``

At fill ratio *f* the average gap is ``1/f``, so each position costs
about ``max(1, log128(1/f))`` bytes — cheaper than the bitmap below
roughly 8 % fill (the break-even ``auto`` discovers from the closed
form below).  Positions are local to their part and the deltas restart
at every part.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CommunicationError
from repro.mpi.codecs.base import (
    EncodedFrontier,
    FrontierCodec,
    check_part_ends,
    part_layout,
    register_codec,
    segment_offsets,
)
from repro.mpi.codecs.varint import encode_counted, read_counted
from repro.util import bitops

__all__ = [
    "SparseIndexCodec",
    "bit_positions",
    "encode_position_lists",
    "estimate_sparse_bytes",
    "read_position_lists",
]


def estimate_sparse_bytes(nbits: int, set_bits: int) -> float:
    """Closed-form wire-byte estimate: count header plus per-gap varints.

    Gaps at fill *f* average ``1/f``; a gap of *g* costs
    ``ceil(log2(g+1) / 7)`` bytes.
    """
    if set_bits <= 0:
        return 2.0
    avg_gap = max(nbits / set_bits, 1.0)
    bytes_per_gap = max(1.0, math.ceil(math.log2(avg_gap + 1.0) / 7.0))
    return 3.0 + set_bits * bytes_per_gap


@register_codec
class SparseIndexCodec(FrontierCodec):
    """Delta-varint list of set-bit positions (see module docstring)."""

    name = "sparse-index"

    def encode(
        self,
        words: np.ndarray,
        *,
        bounds: np.ndarray | None = None,
        nbits: int | None = None,
        visited: np.ndarray | None = None,
    ) -> EncodedFrontier:
        """List every part's set positions and delta-compress the gaps."""
        bounds, nbits = part_layout(self.name, words, bounds, nbits)
        pos, part = bit_positions(words, bounds, nbits)
        payload, nbytes = encode_position_lists(pos, part, bounds.size - 1)
        return EncodedFrontier(
            codec=self.name,
            payload=payload,
            nwords=int(words.size),
            nbits=nbits,
            bounds=bounds,
            part_offsets=segment_offsets(nbytes),
        )

    def decode(
        self,
        enc: EncodedFrontier,
        *,
        visited: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scatter every part's positions back into a zeroed bitmap."""
        buf, offsets = enc.payload, enc.part_offsets
        pos, part, ends = read_position_lists(
            buf,
            np.flatnonzero(buf < 0x80),
            offsets[:-1],
            offsets[1:],
            enc.part_nbits,
        )
        check_part_ends(ends, offsets[1:])
        out = np.zeros(enc.nwords, dtype=bitops.WORD_DTYPE)
        bitops.set_bits(out, pos + enc.bounds[part] * 64)
        return out

    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Delegates to :func:`estimate_sparse_bytes` (ignores visited)."""
        return estimate_sparse_bytes(nbits, set_bits)


def bit_positions(
    words: np.ndarray, bounds: np.ndarray, nbits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Set bits below ``nbits``: ``(position within its part, part)``.

    Only the nonzero bytes are unpacked, so the cost follows the fill.
    """
    octets = words.view(np.uint8)
    nz = np.flatnonzero(octets)
    row, bit = np.nonzero(
        np.unpackbits(octets[nz], bitorder="little").reshape(-1, 8)
    )
    pos = nz[row] * 8 + bit
    if nbits < words.size * 64:
        pos = pos[pos < nbits]
    part = np.searchsorted(bounds, pos >> 6, side="right") - 1
    return pos - bounds[part] * 64, part


def encode_position_lists(
    pos: np.ndarray, part: np.ndarray, nparts: int
) -> tuple[np.ndarray, np.ndarray]:
    """``varint(count) · first · gaps`` of every part's position list.

    ``pos``/``part`` are sorted by part, then position.  Returns the
    parts' streams back to back and each part's byte count.
    """
    deltas = pos.copy()
    deltas[1:] -= pos[:-1]
    first = np.ones(pos.size, dtype=bool)
    first[1:] = part[1:] != part[:-1]
    deltas[first] = pos[first]
    return encode_counted(deltas, np.bincount(part, minlength=nparts))


def read_position_lists(
    buf: np.ndarray,
    ends: np.ndarray,
    starts: np.ndarray,
    limits: np.ndarray,
    nbits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the position list at ``starts[r]`` of every part ``r``.

    Every position must lie below its part's ``nbits``.  Returns
    ``(positions, part ids, next starts)``.
    """
    deltas, part, nxt, counts = read_counted(buf, ends, starts, limits)
    # Deltas restart at every part: a running sum minus its value at
    # the part's head.
    sums = segment_offsets(deltas)
    pos = sums[1:] - np.repeat(sums[segment_offsets(counts)[:-1]], counts)
    bad = (pos < 0) | (pos >= nbits[part])
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CommunicationError(
            f"position {int(pos[i])} out of range for a part of "
            f"{int(nbits[part[i]])} bits",
            part=int(part[i]),
        )
    return pos, part, nxt
