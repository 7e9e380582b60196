"""Sieve codec: subtract receiver-known visited bits before encoding.

Lv et al. (arXiv:1208.5542) observe that the bottom-up frontier never
contains a vertex that was in an *earlier* frontier, and every rank saw
those earlier frontiers — they were allgathered.  The union of previous
``in_queue`` bitmaps is therefore **common knowledge**, and the sender
can compact it out of the payload: only the bit positions the receiver
cannot predict are transmitted.  Late in the traversal most of the
vertex space is visited, so the compacted bitmap is a small fraction of
the raw one regardless of how compressible its contents are.

Wire format::

    varint(n_exceptional) · delta varints · tag byte · inner payload

The *exceptional list* carries set bits at visited positions, making the
codec lossless for arbitrary inputs (property tests exercise overlap);
in the engine the frontier/visited invariant keeps it empty.  The inner
payload is the compacted bitmap (frontier bits at unvisited positions,
in position order, padded to whole words) encoded with whichever of
RLE/sparse is smaller for that part (tag ``0``/``1``).
"""

from __future__ import annotations

import contextlib

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
from repro.mpi.codecs.rle import estimate_rle_bytes, rle_encode, rle_read
from repro.mpi.codecs.sparse import (
    bit_positions,
    encode_position_lists,
    estimate_sparse_bytes,
    read_position_lists,
)
from repro.mpi.codecs.varint import varint_size
from repro.util import bitops

__all__ = ["SieveCodec"]

_INNER_RLE, _INNER_SPARSE = 0, 1


@register_codec
class SieveCodec(FrontierCodec):
    """Visited-bit sieve with RLE/sparse inner coding (module docstring)."""

    name = "sieve"

    def encode(
        self,
        words: np.ndarray,
        *,
        bounds: np.ndarray | None = None,
        nbits: int | None = None,
        visited: np.ndarray | None = None,
    ) -> EncodedFrontier:
        """Compact every part's unvisited positions, encode the remainder."""
        bounds, nbits = part_layout(self.name, words, bounds, nbits)
        nparts = bounds.size - 1
        cwords, cbounds = _pack_compact(words, visited, nbits, bounds)
        cwords_per_part = np.diff(cbounds)
        # Frontier bits at visited positions: the exceptional list.
        overlap = np.zeros_like(words) if visited is None else words & visited
        exc, exc_nbytes = encode_position_lists(
            *bit_positions(overlap, bounds, nbits), nparts
        )
        rle, rle_nbytes = rle_encode(cwords, cbounds)
        # A position list costs its count plus at least a byte per set
        # bit; parts where that already reaches the RLE size (dense ones)
        # are not listed at all.
        nset = part_sums(bitops.popcount_words(cwords), cbounds)
        listed = varint_size(nset) + nset < rle_nbytes
        pos, part = bit_positions(
            np.where(np.repeat(listed, cwords_per_part), cwords, 0),
            cbounds,
            cwords.size * 64,
        )
        sparse, sparse_nbytes = encode_position_lists(pos, part, nparts)
        use_sparse = listed & (sparse_nbytes < rle_nbytes)
        ones = np.ones(nparts, dtype=np.int64)
        payload, nbytes = interleave(
            [exc, use_sparse.astype(np.uint8), rle, sparse],
            [exc_nbytes, ones, rle_nbytes, sparse_nbytes],
            take=[ones, ones, ~use_sparse, use_sparse],
        )
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
        """Scatter every part's compacted bits back over its unvisited
        positions."""
        buf, offsets = enc.payload, enc.part_offsets
        starts, limits = offsets[:-1], offsets[1:]
        nbits = enc.nbits
        mask, unvisited = _mask(visited, enc.nwords, nbits, enc.bounds)
        ends = np.flatnonzero(buf < 0x80)
        exceptional, exc_part, tag_at = read_position_lists(
            buf, ends, starts, limits, enc.part_nbits
        )
        if (tag_at >= limits).any():
            raise CommunicationError(
                "sieve payload truncated before its inner tag",
                part=int(np.argmax(tag_at >= limits)),
            )
        tags = buf[tag_at]
        if (tags > _INNER_SPARSE).any():
            p = int(np.argmax(tags > _INNER_SPARSE))
            raise CommunicationError(
                f"unknown sieve inner tag {int(tags[p])}", part=p
            )
        cwords_per_part = (unvisited + 63) // 64
        cbounds = segment_offsets(cwords_per_part)
        cwords = np.zeros(cbounds[-1], dtype=bitops.WORD_DTYPE)
        inner_end = np.empty_like(limits)
        rle = np.flatnonzero(tags == _INNER_RLE)
        with _naming_parts(rle):
            rle_words, inner_end[rle] = rle_read(
                buf, ends, tag_at[rle] + 1, limits[rle], cwords_per_part[rle]
            )
        cwords[segment_index(cbounds[rle], cwords_per_part[rle])] = rle_words
        sparse = np.flatnonzero(tags == _INNER_SPARSE)
        with _naming_parts(sparse):
            pos, part, inner_end[sparse] = read_position_lists(
                buf, ends, tag_at[sparse] + 1, limits[sparse], unvisited[sparse]
            )
        bitops.set_bits(cwords, pos + cbounds[sparse][part] * 64)
        check_part_ends(inner_end, limits)
        # The compacted bits in order (word padding dropped); each set one
        # lands on the unvisited position of the same rank.
        compact = np.compress(
            _compact_slots(unvisited, cwords_per_part),
            _bits(cwords, cwords.size * 64),
        )
        out = np.zeros(enc.nwords, dtype=bitops.WORD_DTYPE)
        bitops.set_bits(
            out,
            np.concatenate(
                (
                    np.flatnonzero(~mask)[np.flatnonzero(compact)],
                    exceptional + np.minimum(enc.bounds * 64, nbits)[exc_part],
                )
            ),
        )
        return out

    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Inner estimate over the compacted space plus fixed framing."""
        unvisited = max(nbits - visited_bits, 1)
        inner_set = min(set_bits, unvisited)
        inner = min(
            estimate_rle_bytes(unvisited, inner_set),
            estimate_sparse_bytes(unvisited, inner_set),
        )
        return 3.0 + inner


@contextlib.contextmanager
def _naming_parts(parts: np.ndarray):
    """Map the ``part`` of a decode error over ``parts`` back to its
    index among all parts."""
    try:
        yield
    except CommunicationError as err:
        if "part" in err.context:
            err.context["part"] = int(parts[err.context["part"]])
        raise


def _bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """The first ``nbits`` bits of ``words`` as a bool array."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[
        :nbits
    ].view(bool)


def _mask(
    visited: np.ndarray | None, nwords: int, nbits: int, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The visited bits below ``nbits`` and every part's unvisited count."""
    part_nbits = np.diff(np.minimum(bounds * 64, nbits))
    if visited is None:
        return np.zeros(nbits, dtype=bool), part_nbits
    if visited.size != nwords:
        raise CommunicationError(
            "visited mask must match the bitmap word count"
        )
    mask = _bits(visited, nbits)
    per_word = bitops.popcount_words(visited)
    if nbits < nwords * 64:
        per_word[-1] = np.count_nonzero(mask[(nwords - 1) * 64 :])
    return mask, part_nbits - part_sums(per_word, bounds)


def _compact_slots(unvisited: np.ndarray, cwords: np.ndarray) -> np.ndarray:
    """Bool mask over the parts' padded compact words: the slots that
    hold a compacted bit (each part's first ``unvisited`` bits)."""
    slots = np.ones((int(cwords.sum()), 64), dtype=bool)
    pad = cwords * 64 - unvisited
    last = np.cumsum(cwords)[pad > 0] - 1
    slots[last] = np.arange(64) < (64 - pad[pad > 0])[:, None]
    return slots.ravel()


def _pack_compact(
    words: np.ndarray,
    visited: np.ndarray | None,
    nbits: int,
    bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every part's frontier bits at unvisited positions, in order and
    padded to whole words: ``(compact words, their part bounds)``."""
    mask, unvisited = _mask(visited, words.size, nbits, bounds)
    # np.compress: the same selection as ``bits[~mask]``, several times
    # faster on the scattered masks a sieve sees.
    compact = np.compress(~mask, _bits(words, nbits))
    cwords_per_part = (unvisited + 63) // 64
    slots = _compact_slots(unvisited, cwords_per_part)
    padded = np.zeros(slots.size, dtype=bool)
    padded[slots] = compact
    cwords = np.packbits(padded, bitorder="little").view(bitops.WORD_DTYPE)
    return cwords, segment_offsets(cwords_per_part)
