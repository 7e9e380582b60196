"""Frontier codec contract and registry.

A *frontier codec* is an interchangeable wire format for the bitmap
payloads of the bottom-up allgathers (``out_queue`` parts gathered into
``in_queue``, plus the summary).  Codecs mirror the kernel-backend
registry of :mod:`repro.core.kernels`: classes register under a short
name, :func:`resolve_codec` applies the precedence ``CommConfig.codec``
→ ``$REPRO_CODEC`` → :data:`DEFAULT_CODEC`.

The contract is **losslessness**: ``decode(encode(words)) == words`` for
any word array whose padding bits beyond ``nbits`` are zero (the engine's
word-aligned partition guarantees that).  Codecs never change what the
BFS computes — only the simulated bytes on the wire and the
encode/decode seconds charged by the
:class:`~repro.machine.costmodel.CodecCostModel` differ.  The
``visited`` argument carries the receiver-side common knowledge the
sieve codec exploits (the union of previously allgathered frontiers);
codecs that ignore it must accept and disregard it.

**Parts.**  One call encodes every rank's part of an allgather:
``bounds`` holds the word offsets of the parts (``parts + 1`` entries,
like ``PreparedGraph.word_starts``; ``None`` is one part).  Part ``r``
is encoded exactly as a one-part call on ``words[bounds[r]:bounds[r+1]]``
would encode it, and the parts' payloads are concatenated;
:attr:`EncodedFrontier.part_offsets` locates each one and every part is
charged its own framing byte.  The helpers at the bottom of this module
(:func:`part_layout`, :func:`part_sums`, :func:`segment_index`,
:func:`interleave`, :func:`segment_offsets`, :func:`check_part_ends`) are
the per-part bookkeeping every codec shares.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import CommunicationError, ConfigError
from repro.util import bitops

__all__ = [
    "DEFAULT_CODEC",
    "ENV_VAR",
    "WIRE_HEADER_BYTES",
    "EncodedFrontier",
    "FrontierCodec",
    "available_codecs",
    "check_part_ends",
    "default_codec",
    "get_codec",
    "interleave",
    "part_layout",
    "part_sums",
    "register_codec",
    "resolve_codec",
    "segment_index",
    "segment_offsets",
]

#: Codec used when neither the config nor the environment picks one.
DEFAULT_CODEC = "raw"

#: Environment variable consulted when the config does not pin a codec.
ENV_VAR = "REPRO_CODEC"

#: One codec-id byte prefixes every non-raw payload on the wire, so a
#: receiver can dispatch the decoder (and ``auto``'s per-level choice is
#: self-describing).  The raw path sends the bitmap words unframed —
#: today's behaviour, byte for byte.
WIRE_HEADER_BYTES = 1


@dataclass(frozen=True)
class EncodedFrontier:
    """The encoded payloads of one or more bitmap parts.

    ``payload`` is every part's byte stream back to back (excluding the
    :data:`WIRE_HEADER_BYTES` framing), part ``r`` at
    ``payload[part_offsets[r]:part_offsets[r+1]]``.  ``bounds`` holds the
    parts' word offsets into the decoded words; ``nwords``/``nbits``
    describe the decoded shape as a whole (only the last part can end in
    padding bits).  The receiver knows the shape from the partition, so
    none of it is charged as wire bytes.  ``bounds``/``part_offsets``
    default to a single part.
    """

    codec: str
    payload: np.ndarray  # uint8
    nwords: int
    nbits: int
    header_bytes: int = WIRE_HEADER_BYTES
    bounds: np.ndarray | None = None
    part_offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.bounds is None:
            object.__setattr__(
                self, "bounds", np.array([0, self.nwords], dtype=np.int64)
            )
        if self.part_offsets is None:
            object.__setattr__(
                self,
                "part_offsets",
                np.array([0, self.payload.size], dtype=np.int64),
            )
        bounds, offsets = self.bounds, self.part_offsets
        if (
            bounds.size < 2
            or offsets.size != bounds.size
            or bounds[0] != 0
            or bounds[-1] != self.nwords
            or offsets[0] != 0
            or offsets[-1] != self.payload.size
            or (np.diff(bounds) < 0).any()
            or (np.diff(offsets) < 0).any()
        ):
            raise CommunicationError(
                f"{self.codec} payload framing does not match its "
                f"{self.nwords} words and {self.payload.size} bytes"
            )

    @property
    def nparts(self) -> int:
        """Number of parts in the payload."""
        return int(self.bounds.size) - 1

    @property
    def part_nbits(self) -> np.ndarray:
        """Bit count of every part (int64; padding only in the last)."""
        nbits = np.diff(self.bounds) * 64
        nbits[-1] -= self.nwords * 64 - self.nbits
        return nbits

    @property
    def raw_nbytes(self) -> int:
        """Size of the un-encoded bitmap (the pre-codec payload)."""
        return self.nwords * 8

    @property
    def part_wire_nbytes(self) -> np.ndarray:
        """Bytes each part occupies on the wire (payload + framing)."""
        return np.diff(self.part_offsets) + self.header_bytes

    @property
    def wire_nbytes(self) -> int:
        """Bytes all parts occupy on the wire (payloads + framing)."""
        return int(self.payload.size) + self.header_bytes * self.nparts


class FrontierCodec(abc.ABC):
    """One interchangeable wire format for frontier bitmap payloads.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`encode`/:meth:`decode` plus the :meth:`estimate_wire_bytes`
    closed form the ``auto`` mode scores candidates with.  Both methods
    handle every part of a collective in one call (module docstring).
    """

    name: ClassVar[str]

    @property
    def is_identity(self) -> bool:
        """True for the raw codec (no transform, no framing byte)."""
        return False

    @abc.abstractmethod
    def encode(
        self,
        words: np.ndarray,
        *,
        bounds: np.ndarray | None = None,
        nbits: int | None = None,
        visited: np.ndarray | None = None,
    ) -> EncodedFrontier:
        """Encode the uint64 bitmap parts ``words`` splits into.

        ``bounds`` are the parts' word offsets (``None``: one part).
        ``nbits`` defaults to ``words.size * 64``; padding bits beyond it
        fall in the last part and must be zero.  ``visited`` (same word
        length, may be ``None``) is the receiver-known mask sieve-style
        codecs may subtract.
        """

    @abc.abstractmethod
    def decode(
        self,
        enc: EncodedFrontier,
        *,
        visited: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reconstruct the exact ``nwords`` uint64 words of every part.

        ``visited`` is the concatenated mask, aligned with the words, and
        must be bit-identical to the mask the encoder saw — the engine
        guarantees this by deriving it from previously allgathered
        frontiers, which every rank observed.  A malformed part raises
        :class:`~repro.errors.CommunicationError` with its index as the
        ``part`` context.
        """

    @abc.abstractmethod
    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Closed-form wire-byte estimate from aggregate fill statistics.

        Used by the ``auto`` mode to score codecs without encoding; the
        estimate prices an *average* bit layout at the given fill ratio,
        not the exact payload.
        """


_REGISTRY: dict[str, type[FrontierCodec]] = {}
_SHARED: dict[str, FrontierCodec] = {}


def register_codec(cls: type[FrontierCodec]) -> type[FrontierCodec]:
    """Class decorator: register a codec under its ``name`` attribute."""
    if not getattr(cls, "name", None):
        raise ConfigError("frontier codec classes must set a non-empty name")
    _REGISTRY[cls.name] = cls
    _SHARED.pop(cls.name, None)
    return cls


def available_codecs() -> tuple[str, ...]:
    """Names of all registered frontier codecs, sorted."""
    return tuple(sorted(_REGISTRY))


def get_codec(name: str) -> FrontierCodec:
    """Codec instance by registry name.

    Instances are stateless and shared per name; an unknown name raises
    :class:`~repro.errors.ConfigError` listing the alternatives.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown frontier codec {name!r}; available: "
            f"{', '.join(available_codecs())}"
        )
    inst = _SHARED.get(name)
    if inst is None:
        inst = _SHARED[name] = cls()
    return inst


def _env_name() -> str:
    return os.environ.get(ENV_VAR) or DEFAULT_CODEC


def default_codec() -> FrontierCodec:
    """The process-default codec (``$REPRO_CODEC`` or the built-in)."""
    return get_codec(_env_name())


def resolve_codec(config=None) -> FrontierCodec:
    """Codec for one engine: ``config.comm.codec`` → env var → default.

    Mirrors :func:`repro.core.kernels.resolve_backend` so the CLI/env
    precedence rules are identical for both plug-in families.
    """
    comm = getattr(config, "comm", None)
    return get_codec(getattr(comm, "codec", None) or _env_name())


def part_layout(
    codec: str,
    words: np.ndarray,
    bounds: np.ndarray | None,
    nbits: int | None,
) -> tuple[np.ndarray, int]:
    """Validated ``(bounds, nbits)`` of an :meth:`FrontierCodec.encode` call.

    ``bounds`` comes back as int64 word offsets (one part when ``None``)
    and ``nbits`` as the total bit count, padding confined to the last
    part's last word.
    """
    if words.dtype != bitops.WORD_DTYPE:
        raise CommunicationError(f"{codec} codec expects uint64 words")
    nwords = int(words.size)
    if bounds is None:
        bounds = np.array([0, nwords], dtype=np.int64)
    else:
        bounds = np.asarray(bounds, dtype=np.int64)
        if (
            bounds.size < 2
            or bounds[0] != 0
            or bounds[-1] != nwords
            or (np.diff(bounds) < 0).any()
        ):
            raise CommunicationError(
                f"part bounds must rise from 0 to {nwords} words"
            )
    nbits = nwords * 64 if nbits is None else int(nbits)
    pad = nwords * 64 - nbits
    if not 0 <= pad < 64 or (pad and bounds[-1] == bounds[-2]):
        raise CommunicationError(
            f"nbits {nbits} does not fit the last part of {nwords} words"
        )
    return bounds, nbits


def part_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each segment ``bounds[r]:bounds[r+1]``.

    Unlike ``np.add.reduceat`` an empty segment sums to zero.
    """
    cs = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return cs[bounds[1:]] - cs[bounds[:-1]]


def segment_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``starts[i]`` to ``starts[i] + lengths[i] - 1`` for every
    ``i``, concatenated (one ``np.repeat``, no loop over segments)."""
    dest = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - dest, lengths)


def interleave(
    streams: list[np.ndarray],
    lengths: list[np.ndarray],
    take: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One payload holding, part by part, each stream's segment of it.

    Stream ``s`` is its parts' segments back to back, ``lengths[s][r]``
    bytes for part ``r``.  Part ``r`` of the result is its segment of
    stream 0, then of stream 1, and so on; a false ``take[s][r]`` leaves
    that segment out.  Returns ``(payload, per-part byte counts)`` — one
    gather, however many parts.
    """
    lens = np.array(lengths, dtype=np.int64)  # (streams, parts)
    sizes = lens.sum(axis=1)
    src = np.cumsum(lens, axis=1) - lens + (np.cumsum(sizes) - sizes)[:, None]
    if take is not None:
        lens = lens * np.array(take, dtype=bool)
    payload = np.concatenate(streams)[
        segment_index(src.T.ravel(), lens.T.ravel())
    ]
    return payload, lens.sum(axis=0)


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """Offsets of segments laid out back to back (``len + 1`` entries)."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def check_part_ends(ends: np.ndarray, limits: np.ndarray) -> None:
    """Raise unless every part's last field ends exactly at its boundary.

    ``ends``/``limits`` are byte positions per part: where its last field
    ended and where its payload ends.
    """
    bad = ends != limits
    if bad.any():
        p = int(np.flatnonzero(bad)[0])
        raise CommunicationError(
            f"{int(limits[p] - ends[p])} trailing bytes after the part's "
            f"last field",
            part=p,
        )
