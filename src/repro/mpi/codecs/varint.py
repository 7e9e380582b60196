"""Vectorized LEB128 varint encoding for codec payloads.

All frontier codecs store counts, vertex positions and run tokens as
unsigned little-endian base-128 varints (the Graph500 compressed-frontier
formats of Lv et al. use the same 7-bit-group scheme).  Both directions
are numpy-vectorized: the encoder loops over the at most ten 7-bit byte
positions of a 64-bit value, never over individual values, and the
decoder reconstructs all values of a buffer with one masked
shift-accumulate per byte position.

Varints are elementwise, so one :func:`encode_varints` call over several
parts' value streams, back to back, *is* every part's stream;
:func:`encode_counted` builds the "count, then that many values" field
of every part at once.  Reading is one terminator scan over the whole
payload (``buf < 0x80``) plus :func:`read_varints`, which reads a run of
varints at a separate start offset for every part.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError

__all__ = [
    "decode_varints",
    "encode_counted",
    "encode_varints",
    "read_counted",
    "read_varints",
    "varint_size",
]

#: Longest possible varint of a 64-bit value (ceil(64 / 7) bytes).
_MAX_VARINT_BYTES = 10

#: Smallest value of each varint length beyond one byte: 2^7, 2^14, ...
_LENGTH_STEPS = np.uint64(1) << np.arange(7, 64, 7, dtype=np.uint64)


def varint_size(values: np.ndarray) -> np.ndarray:
    """Encoded size in bytes of each value (int64 array).

    A value occupies ``max(1, ceil(bits(v) / 7))`` bytes: one plus the
    number of length steps it reaches, found by one binary search per
    value instead of computing bit lengths.
    """
    values = np.asarray(values, dtype=np.uint64)
    return np.searchsorted(_LENGTH_STEPS, values, side="right") + 1


def encode_varints(
    values: np.ndarray, sizes: np.ndarray | None = None
) -> np.ndarray:
    """Encode non-negative integers as a concatenated varint byte stream.

    ``sizes`` may pass in :func:`varint_size` of ``values`` when the
    caller already has it.
    """
    values = np.asarray(values)
    if values.size and values.min() < 0:
        raise CommunicationError("varints encode non-negative values only")
    values = values.astype(np.uint64)
    if sizes is None:
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


def encode_counted(
    values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per part ``r``: ``varint(counts[r])`` then its ``counts[r]`` values.

    ``values`` holds every part's values in part order.  Returns the
    stream of all parts back to back and each part's byte count.
    """
    counts = np.asarray(counts, dtype=np.int64)
    heads = np.arange(counts.size) + (np.cumsum(counts) - counts)
    merged = np.empty(counts.size + values.size, dtype=np.int64)
    body = np.ones(merged.size, dtype=bool)
    body[heads] = False
    merged[heads] = counts
    merged[body] = values
    sizes = varint_size(merged)
    # Every part has its count, so the head offsets strictly increase
    # and reduceat sums exactly each part's bytes.
    return encode_varints(merged, sizes), np.add.reduceat(sizes, heads)


def read_varints(
    buf: np.ndarray,
    ends: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    limits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read ``counts[r]`` consecutive varints at ``starts[r]`` for every r.

    ``ends`` are the positions of all terminator bytes of ``buf`` (one
    ``np.flatnonzero(buf < 0x80)`` shared by every read of a payload);
    part ``r``'s varints must end before ``limits[r]``.  Returns
    ``(values, part ids, next starts)``: the int64 values in part order,
    the part each came from, and where each part's next field begins.
    Raises :class:`~repro.errors.CommunicationError` naming the part on a
    truncated or over-long varint.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    limits = np.asarray(limits, dtype=np.int64)
    nparts = starts.size
    if not counts.any():
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, starts
    # Each varint takes at least one byte: a count beyond the part's
    # bytes is truncation (and would overflow the index arithmetic).
    over = (counts < 0) | (counts > limits - starts)
    first = np.searchsorted(ends, starts)
    last = first + np.where(over, 0, counts) - 1
    has = counts > 0
    # ``last`` is -1 for a part reading nothing; its tail is never used.
    if ends.size:
        tail = ends[np.minimum(last, ends.size - 1)]
    else:
        tail = np.zeros(nparts, dtype=np.int64)
    bad = over | (has & ((last >= ends.size) | (tail >= limits)))
    if bad.any():
        p = int(np.flatnonzero(bad)[0])
        raise CommunicationError(
            f"varint stream truncated: {int(counts[p])} values expected "
            f"before byte {int(limits[p])}",
            part=p,
        )
    nxt = np.where(has, tail + 1, starts)
    total = int(counts.sum())
    part = np.repeat(np.arange(nparts), counts)
    heads = np.cumsum(counts) - counts
    vend = ends[np.arange(total) + np.repeat(first - heads, counts)]
    vstart = np.empty(total, dtype=np.int64)
    vstart[1:] = vend[:-1] + 1
    vstart[heads[has]] = starts[has]
    lengths = vend - vstart + 1
    maxlen = int(lengths.max())
    if maxlen > _MAX_VARINT_BYTES:
        raise CommunicationError(
            "varint longer than 10 bytes",
            part=int(part[np.argmax(lengths > _MAX_VARINT_BYTES)]),
        )
    values = buf[vstart].astype(np.uint64) & np.uint64(0x7F)
    for k in range(1, maxlen):
        mask = lengths > k
        chunk = buf[vstart[mask] + k].astype(np.uint64) & np.uint64(0x7F)
        values[mask] |= chunk << np.uint64(7 * k)
    return values.astype(np.int64), part, nxt


def read_counted(
    buf: np.ndarray,
    ends: np.ndarray,
    starts: np.ndarray,
    limits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the :func:`encode_counted` field at ``starts[r]`` of every part.

    Returns ``(values, part ids, next starts, counts)``.
    """
    ones = np.ones(np.size(starts), dtype=np.int64)
    counts, _, nxt = read_varints(buf, ends, starts, ones, limits)
    values, part, nxt = read_varints(buf, ends, nxt, counts, limits)
    return values, part, nxt, counts


def decode_varints(
    buf: np.ndarray, count: int
) -> tuple[np.ndarray, int]:
    """Decode ``count`` varints from the head of a byte buffer.

    Returns ``(values, consumed)`` where ``values`` is an int64 array and
    ``consumed`` the number of bytes read.  Raises
    :class:`~repro.errors.CommunicationError` on truncated or oversized
    varints — codec payloads are produced by this module, so a malformed
    stream indicates corruption.
    """
    buf = np.asarray(buf, dtype=np.uint8)
    values, _, nxt = read_varints(
        buf, np.flatnonzero(buf < 0x80), [0], [count], [buf.size]
    )
    return values, int(nxt[0])
