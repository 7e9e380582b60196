"""Run-length codec over dense bitmap words.

Mid-BFS frontiers are dense: long stretches of all-zero words (untouched
vertex ranges) and, late in the traversal, all-one words.  This codec
run-length-encodes at *word* granularity — a token per maximal run of
equal-class words — and ships mixed words verbatim:

``varint(ntokens) · varint tokens · literal words``

where each token is ``(run_length << 2) | tag`` with tag ``0`` = zero
words, ``1`` = all-ones words, ``2`` = literal words (the run's words
follow, in order, in the trailing literal block).  Runs break at every
part start, so each part's stream stands alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError
from repro.mpi.codecs.base import (
    EncodedFrontier,
    FrontierCodec,
    check_part_ends,
    interleave,
    part_layout,
    part_sums,
    register_codec,
    segment_index,
    segment_offsets,
)
from repro.mpi.codecs.varint import encode_counted, read_counted
from repro.util import bitops

__all__ = ["RleBitmapCodec", "estimate_rle_bytes", "rle_encode", "rle_read"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_TAG_ZERO, _TAG_ONES, _TAG_LITERAL = 0, 1, 2


def estimate_rle_bytes(nbits: int, set_bits: int) -> float:
    """Closed-form wire-byte estimate at an average (Bernoulli) fill.

    Models each word as all-zero with probability ``(1-f)^64``, all-one
    with ``f^64`` and literal otherwise; run boundaries are approximated
    by the rarer class.  Exact for the extreme fills 0 and 1 (a single
    2-3 byte token) and pessimistic in between, which is what ``auto``
    needs — it must not pick RLE on a mid-fill bitmap.
    """
    nwords = bitops.words_for_bits(nbits)
    if nwords == 0:
        return 1.0
    fill = min(max(set_bits / max(nbits, 1), 0.0), 1.0)
    p_zero = (1.0 - fill) ** 64
    p_ones = fill**64
    lit_frac = max(1.0 - p_zero - p_ones, 0.0)
    runs = 2.0 * nwords * min(p_zero + p_ones, lit_frac) + 2.0
    return 1.0 + runs * 2.0 + lit_frac * nwords * 8.0


@register_codec
class RleBitmapCodec(FrontierCodec):
    """Word-granular run-length encoding (see module docstring)."""

    name = "rle-bitmap"

    def encode(
        self,
        words: np.ndarray,
        *,
        bounds: np.ndarray | None = None,
        nbits: int | None = None,
        visited: np.ndarray | None = None,
    ) -> EncodedFrontier:
        """Tokenize maximal runs of zero/ones/literal words per part."""
        bounds, nbits = part_layout(self.name, words, bounds, nbits)
        payload, nbytes = rle_encode(words, bounds)
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
        """Expand every part's token stream back into its words."""
        buf, offsets = enc.payload, enc.part_offsets
        words, ends = rle_read(
            buf,
            np.flatnonzero(buf < 0x80),
            offsets[:-1],
            offsets[1:],
            np.diff(enc.bounds),
        )
        check_part_ends(ends, offsets[1:])
        return words

    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Delegates to :func:`estimate_rle_bytes` (ignores ``visited``)."""
        return estimate_rle_bytes(nbits, set_bits)


def rle_encode(
    words: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """RLE streams of every part ``words[bounds[r]:bounds[r+1]]``.

    Returns the parts' streams back to back and each part's byte count.
    """
    nwords = words.size
    classes = np.full(nwords, _TAG_LITERAL, dtype=np.int64)
    classes[words == np.uint64(0)] = _TAG_ZERO
    classes[words == _ONES] = _TAG_ONES
    run_start = np.ones(nwords, dtype=bool)
    run_start[1:] = classes[1:] != classes[:-1]
    run_start[bounds[:-1][bounds[:-1] < nwords]] = True
    starts = np.flatnonzero(run_start)
    lens = np.diff(starts, append=nwords)
    tokens = (lens << 2) | classes[starts]
    run_part = np.searchsorted(bounds, starts, side="right") - 1
    heads, head_nbytes = encode_counted(
        tokens, np.bincount(run_part, minlength=bounds.size - 1)
    )
    literal = classes == _TAG_LITERAL
    return interleave(
        [heads, words[literal].view(np.uint8)],
        [head_nbytes, part_sums(literal, bounds) * 8],
    )


def rle_read(
    buf: np.ndarray,
    ends: np.ndarray,
    starts: np.ndarray,
    limits: np.ndarray,
    nwords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the RLE stream at ``starts[r]`` of every part ``r``.

    ``ends`` is the payload's terminator scan (see
    :func:`~repro.mpi.codecs.varint.read_varints`), ``limits`` the parts'
    byte ends and ``nwords`` their word counts.  Returns every part's
    words back to back and where each part's literal block ends.
    """
    tokens, token_part, nxt, counts = read_counted(buf, ends, starts, limits)
    lens = tokens >> 2
    tags = tokens & 3
    bad = (tokens < 0) | (tags > _TAG_LITERAL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CommunicationError(
            f"invalid rle token {int(tokens[i])}", part=int(token_part[i])
        )
    # Clipping each run at one past its part's size keeps the sums exact
    # up to "too many" without int64 overflow on corrupt run lengths.
    got = part_sums(
        np.minimum(lens, nwords[token_part] + 1), segment_offsets(counts)
    )
    wrong = got != nwords
    if wrong.any():
        p = int(np.flatnonzero(wrong)[0])
        n = int(nwords[p])
        raise CommunicationError(
            f"rle payload decodes to "
            f"{int(got[p]) if got[p] < n else f'more than {n}'} words, "
            f"expected {n}",
            part=p,
        )
    classes = np.repeat(tags, lens)
    out = np.zeros(classes.size, dtype=bitops.WORD_DTYPE)
    out[classes == _TAG_ONES] = _ONES
    literal = classes == _TAG_LITERAL
    lit_nbytes = part_sums(literal, segment_offsets(nwords)) * 8
    lit_end = nxt + lit_nbytes
    short = lit_end > limits
    if short.any():
        raise CommunicationError(
            "rle literal block truncated",
            part=int(np.flatnonzero(short)[0]),
        )
    out[literal] = buf[segment_index(nxt, lit_nbytes)].view(bitops.WORD_DTYPE)
    return out, lit_end
