"""Per-part frontier codec oracle: the one-part-per-call implementations.

These are the codec bodies as they were before every codec learned to
encode all parts of an allgather in one call, kept verbatim so the
multi-part implementations in :mod:`repro.mpi.codecs` can be checked
byte for byte against them (``tests/test_codecs.py``).  Each function
handles exactly one part; :func:`encode_part`/:func:`decode_part`
dispatch by codec name.  Nothing in the library imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError
from repro.util import bitops

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_TAG_ZERO, _TAG_ONES, _TAG_LITERAL = 0, 1, 2
_INNER_RLE, _INNER_SPARSE = 0, 1
_MAX_VARINT_BYTES = 10


def varint_size(values: np.ndarray) -> np.ndarray:
    """Encoded size in bytes of each value (int64 array)."""
    values = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(values.shape, dtype=np.int64)
    for k in range(1, _MAX_VARINT_BYTES):
        sizes += values >= np.uint64(1) << np.uint64(7 * k)
    return sizes


def encode_varints(values: np.ndarray) -> np.ndarray:
    """Encode non-negative integers as a concatenated varint byte stream."""
    values = np.asarray(values)
    if values.size and values.min() < 0:
        raise CommunicationError("varints encode non-negative values only")
    values = values.astype(np.uint64)
    sizes = varint_size(values)
    total = int(sizes.sum())
    out = np.zeros(total, dtype=np.uint8)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    for k in range(_MAX_VARINT_BYTES):
        mask = sizes > k
        if not mask.any():
            break
        chunk = (values[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (sizes[mask] > k + 1).astype(np.uint64) << np.uint64(7)
        out[offsets[mask] + k] = (chunk | cont).astype(np.uint8)
    return out


def decode_varints(buf: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` varints from the head of ``buf``."""
    buf = np.asarray(buf, dtype=np.uint8)
    if count == 0:
        return np.zeros(0, dtype=np.int64), 0
    ends = np.flatnonzero((buf & 0x80) == 0)
    if ends.size < count:
        raise CommunicationError(
            f"varint stream truncated: {count} values expected, "
            f"{ends.size} terminators found"
        )
    ends = ends[:count]
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > _MAX_VARINT_BYTES:
        raise CommunicationError("varint longer than 10 bytes")
    values = np.zeros(count, dtype=np.uint64)
    for k in range(int(lengths.max())):
        mask = lengths > k
        chunk = buf[starts[mask] + k].astype(np.uint64) & np.uint64(0x7F)
        values[mask] |= chunk << np.uint64(7 * k)
    return values.astype(np.int64), int(ends[-1]) + 1


def rle_encode_words(words: np.ndarray) -> np.ndarray:
    """Encode a uint64 word array as the RLE token stream (uint8)."""
    nwords = int(words.size)
    if nwords == 0:
        return encode_varints(np.array([0], dtype=np.int64))
    classes = np.full(nwords, _TAG_LITERAL, dtype=np.int64)
    classes[words == np.uint64(0)] = _TAG_ZERO
    classes[words == _ONES] = _TAG_ONES
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(classes)) + 1)
    ).astype(np.int64)
    lens = np.diff(np.concatenate((starts, [nwords])))
    tags = classes[starts]
    tokens = (lens << 2) | tags
    literal = words[np.repeat(tags == _TAG_LITERAL, lens)]
    return np.concatenate(
        (
            encode_varints(np.array([tokens.size], dtype=np.int64)),
            encode_varints(tokens),
            np.ascontiguousarray(literal).view(np.uint8),
        )
    )


def rle_decode_words(payload: np.ndarray, nwords: int) -> np.ndarray:
    """Decode an RLE token stream back into ``nwords`` uint64 words."""
    (ntokens,), used = decode_varints(payload, 1)
    tokens, used2 = decode_varints(payload[used:], int(ntokens))
    tags = tokens & 3
    lens = tokens >> 2
    if int(lens.sum()) != nwords:
        raise CommunicationError(
            f"rle payload decodes to {int(lens.sum())} words, "
            f"expected {nwords}"
        )
    out = np.zeros(nwords, dtype=bitops.WORD_DTYPE)
    classes = np.repeat(tags, lens)
    out[classes == _TAG_ONES] = _ONES
    lit_mask = classes == _TAG_LITERAL
    nlit = int(lit_mask.sum())
    lit_bytes = payload[used + used2 : used + used2 + nlit * 8]
    if lit_bytes.size != nlit * 8:
        raise CommunicationError("rle literal block truncated")
    out[lit_mask] = np.ascontiguousarray(lit_bytes).view(bitops.WORD_DTYPE)
    return out


def encode_positions(idx: np.ndarray) -> np.ndarray:
    """Encode a sorted position list as count + first + gap varints."""
    count = np.array([idx.size], dtype=np.int64)
    if idx.size == 0:
        return encode_varints(count)
    deltas = np.empty(idx.size, dtype=np.int64)
    deltas[0] = idx[0]
    deltas[1:] = np.diff(idx)
    return np.concatenate((encode_varints(count), encode_varints(deltas)))


def decode_positions(payload: np.ndarray) -> tuple[np.ndarray, int]:
    """Decode a position list; returns ``(positions, bytes consumed)``."""
    (count,), used = decode_varints(payload, 1)
    if count == 0:
        return np.zeros(0, dtype=np.int64), used
    deltas, used2 = decode_varints(payload[used:], int(count))
    return np.cumsum(deltas), used + used2


def sparse_encode(words: np.ndarray, nbits: int) -> np.ndarray:
    """The ``sparse-index`` payload of one part."""
    return encode_positions(bitops.nonzero_bit_indices(words, nbits))


def sparse_decode(payload: np.ndarray, nwords: int) -> np.ndarray:
    """Words of one ``sparse-index`` part (range-checked per word, not bit)."""
    idx, _ = decode_positions(payload)
    out = np.zeros(nwords, dtype=bitops.WORD_DTYPE)
    if idx.size:
        if int(idx[-1]) >= nwords * 64:
            raise CommunicationError("sparse payload position out of range")
        bitops.set_bits(out, idx)
    return out


def sieve_encode(
    words: np.ndarray, nbits: int, visited: np.ndarray | None
) -> np.ndarray:
    """The ``sieve`` payload of one part."""
    frontier = bitops.bits_to_bool(words, nbits)
    if visited is None:
        mask = np.zeros(nbits, dtype=bool)
    else:
        if visited.size != words.size:
            raise CommunicationError(
                "visited mask must match the bitmap word count"
            )
        mask = bitops.bits_to_bool(visited, nbits)
    exceptional = np.flatnonzero(frontier & mask).astype(np.int64)
    compact = frontier[~mask]
    compact_words = bitops.bool_to_bits(compact)
    inner_rle = rle_encode_words(compact_words)
    inner_sparse = encode_positions(np.flatnonzero(compact).astype(np.int64))
    if inner_sparse.size < inner_rle.size:
        tag, inner = _INNER_SPARSE, inner_sparse
    else:
        tag, inner = _INNER_RLE, inner_rle
    return np.concatenate(
        (
            encode_positions(exceptional),
            np.array([tag], dtype=np.uint8),
            inner,
        )
    )


def sieve_decode(
    payload: np.ndarray,
    nwords: int,
    nbits: int,
    visited: np.ndarray | None,
) -> np.ndarray:
    """Words of one ``sieve`` part."""
    if visited is None:
        mask = np.zeros(nbits, dtype=bool)
    else:
        if visited.size != nwords:
            raise CommunicationError(
                "visited mask must match the bitmap word count"
            )
        mask = bitops.bits_to_bool(visited, nbits)
    exceptional, used = decode_positions(payload)
    tag = int(payload[used])
    inner = payload[used + 1 :]
    ncompact = int(nbits - mask.sum())
    if tag == _INNER_RLE:
        cwords = rle_decode_words(inner, bitops.words_for_bits(ncompact))
        compact = bitops.bits_to_bool(cwords, ncompact)
    elif tag == _INNER_SPARSE:
        idx, _ = decode_positions(inner)
        compact = np.zeros(ncompact, dtype=bool)
        if idx.size:
            if int(idx[-1]) >= ncompact:
                raise CommunicationError("sieve payload position out of range")
            compact[idx] = True
    else:
        raise CommunicationError(f"unknown sieve inner tag {tag}")
    out = np.zeros(nbits, dtype=bool)
    out[~mask] = compact
    if exceptional.size:
        if int(exceptional[-1]) >= nbits:
            raise CommunicationError("sieve exceptional position out of range")
        out[exceptional] = True
    words = bitops.bool_to_bits(out)
    if words.size < nwords:
        words = np.concatenate(
            (words, np.zeros(nwords - words.size, dtype=bitops.WORD_DTYPE))
        )
    return words


def header_bytes(name: str) -> int:
    """Framing bytes of one part: ``raw`` is unframed, the rest carry one."""
    return 0 if name == "raw" else 1


def encode_part(
    name: str,
    words: np.ndarray,
    nbits: int | None = None,
    visited: np.ndarray | None = None,
) -> np.ndarray:
    """One part's payload bytes under codec ``name``."""
    nbits = words.size * 64 if nbits is None else nbits
    if name == "raw":
        return np.ascontiguousarray(words).view(np.uint8)
    if name == "rle-bitmap":
        return rle_encode_words(words)
    if name == "sparse-index":
        return sparse_encode(words, nbits)
    if name == "sieve":
        return sieve_encode(words, nbits, visited)
    raise ValueError(f"no oracle for codec {name!r}")


def decode_part(
    name: str,
    payload: np.ndarray,
    nwords: int,
    nbits: int | None = None,
    visited: np.ndarray | None = None,
) -> np.ndarray:
    """One part's words decoded from ``payload`` under codec ``name``."""
    nbits = nwords * 64 if nbits is None else nbits
    if name == "raw":
        return np.ascontiguousarray(payload).view(bitops.WORD_DTYPE).copy()
    if name == "rle-bitmap":
        return rle_decode_words(payload, nwords)
    if name == "sparse-index":
        return sparse_decode(payload, nwords)
    if name == "sieve":
        return sieve_decode(payload, nwords, nbits, visited)
    raise ValueError(f"no oracle for codec {name!r}")
