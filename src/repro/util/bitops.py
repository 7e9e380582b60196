"""Vectorized bit operations on ``uint64``-word-backed bitmaps.

The BFS frontier structures of the paper (``in_queue``, ``out_queue`` and
their summaries) are bitmaps over the vertex space, stored as arrays of
64-bit words exactly like the Graph500 reference code stores them as
``unsigned long`` arrays.  All operations here are numpy-vectorized; none
loop over individual bits in Python.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "WORD_DTYPE",
    "words_for_bits",
    "get_bits",
    "set_bits",
    "clear_bits",
    "popcount_words",
    "count_set_bits",
    "bits_to_bool",
    "bool_to_bits",
    "nonzero_bit_indices",
]

WORD_BITS = 64
WORD_DTYPE = np.uint64

# Lookup table mapping a byte value to its population count; used to
# popcount uint64 word arrays without Python-level loops where numpy
# (< 2.0) has no native ``bitwise_count``.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def words_for_bits(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits."""
    if nbits < 0:
        raise ValueError(f"nbits must be non-negative, got {nbits}")
    return (nbits + WORD_BITS - 1) // WORD_BITS


def _check_words(words: np.ndarray) -> None:
    if words.dtype != WORD_DTYPE:
        raise TypeError(f"bitmap words must be uint64, got {words.dtype}")


def get_bits(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Return a boolean array with the bit values at positions ``idx``.

    ``idx`` may contain repeated positions and is not required to be sorted.
    """
    _check_words(words)
    idx = np.asarray(idx, dtype=np.int64)
    w = words[idx >> 6]
    shift = (idx & 63).astype(np.uint64)
    return ((w >> shift) & np.uint64(1)).astype(bool)


def _index_words(nwords: int, idx: np.ndarray) -> np.ndarray:
    """``nwords`` words with exactly the bits at ``idx`` set.

    A bool scatter plus one ``packbits`` pass over the whole bitmap:
    repeated indices just rewrite the same flag.  Several times faster
    than the unbuffered ``np.bitwise_or.at`` unless ``idx`` covers only a
    tiny fraction of the bits (a bottom-up frontier never does).
    """
    flags = np.zeros(nwords * WORD_BITS, dtype=bool)
    flags[idx] = True
    return np.packbits(flags, bitorder="little").view(WORD_DTYPE)


def set_bits(words: np.ndarray, idx: np.ndarray) -> None:
    """Set (to 1) the bits at positions ``idx`` in place.

    ``idx`` may contain repeated positions and is not required to be sorted.
    """
    _check_words(words)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    np.bitwise_or(words, _index_words(words.size, idx), out=words)


def clear_bits(words: np.ndarray, idx: np.ndarray) -> None:
    """Clear (to 0) the bits at positions ``idx`` in place."""
    _check_words(words)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    np.bitwise_and(words, ~_index_words(words.size, idx), out=words)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array (returned as int64)."""
    _check_words(words)
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words).astype(np.int64)
    by = words.view(np.uint8)
    counts = _POPCOUNT8[by]
    return counts.reshape(words.shape[0], 8).sum(axis=1, dtype=np.int64)


def count_set_bits(words: np.ndarray, nbits: int | None = None) -> int:
    """Total number of set bits.

    If ``nbits`` is given, bits at positions >= nbits (padding in the last
    word) are ignored; callers that maintain the invariant that padding bits
    are always zero can omit it.
    """
    _check_words(words)
    if words.size == 0:
        return 0
    if nbits is None:
        return int(popcount_words(words).sum())
    used_words = words_for_bits(nbits)
    total = int(popcount_words(words[:used_words]).sum())
    # Subtract any set padding bits in the final word.
    pad = used_words * WORD_BITS - nbits
    if pad:
        last = int(words[used_words - 1])
        pad_mask = ((1 << pad) - 1) << (WORD_BITS - pad)
        total -= bin(last & pad_mask).count("1")
    return total


def bits_to_bool(words: np.ndarray, nbits: int) -> np.ndarray:
    """Expand a word array to a boolean array of length ``nbits``: one
    unpacking pass, viewed as bool."""
    _check_words(words)
    return np.unpackbits(
        words.view(np.uint8), count=nbits, bitorder="little"
    ).view(bool)


def bool_to_bits(flags: np.ndarray) -> np.ndarray:
    """Pack a boolean array into a uint64 word array (little-endian bits)."""
    flags = np.asarray(flags, dtype=bool)
    nwords = words_for_bits(flags.size)
    packed = np.packbits(flags, bitorder="little")
    out = np.zeros(nwords * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(WORD_DTYPE)


def nonzero_bit_indices(words: np.ndarray, nbits: int) -> np.ndarray:
    """Indices (int64) of set bits below ``nbits``, in increasing order,
    unpacking only the non-zero words."""
    _check_words(words)
    nz = np.flatnonzero(words[:words_for_bits(nbits)])
    bits = np.flatnonzero(
        np.unpackbits(words[nz].view(np.uint8), bitorder="little")
    )
    idx = nz[bits >> 6] * 64 + (bits & 63)
    return idx[:np.searchsorted(idx, nbits)]
