"""The identity codec: today's wire format, byte for byte.

``raw`` is the accounting oracle of the codec family — the bitmap words
travel unframed and untransformed, so a run under ``REPRO_CODEC=raw``
prices exactly like the pre-codec engine.  The class exists so the
registry is total (tests round-trip it like any other codec and ``auto``
can *choose* it when compression would not pay).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError
from repro.mpi.codecs.base import (
    EncodedFrontier,
    FrontierCodec,
    part_layout,
    register_codec,
)
from repro.util import bitops

__all__ = ["RawCodec"]


@register_codec
class RawCodec(FrontierCodec):
    """Identity wire format: payload is the word array itself."""

    name = "raw"

    @property
    def is_identity(self) -> bool:
        """Raw is the identity transform (engine skips encode/decode)."""
        return True

    def encode(
        self,
        words: np.ndarray,
        *,
        bounds: np.ndarray | None = None,
        nbits: int | None = None,
        visited: np.ndarray | None = None,
    ) -> EncodedFrontier:
        """Wrap the words unchanged (no framing byte, no transform)."""
        bounds, nbits = part_layout(self.name, words, bounds, nbits)
        return EncodedFrontier(
            codec=self.name,
            payload=np.ascontiguousarray(words).view(np.uint8),
            nwords=int(words.size),
            nbits=nbits,
            header_bytes=0,
            bounds=bounds,
            part_offsets=bounds * 8,
        )

    def decode(
        self,
        enc: EncodedFrontier,
        *,
        visited: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reinterpret the payload bytes as uint64 words."""
        wrong = np.diff(enc.part_offsets) != np.diff(enc.bounds) * 8
        if wrong.any():
            raise CommunicationError(
                "raw payload has wrong size", part=int(np.argmax(wrong))
            )
        return np.ascontiguousarray(enc.payload).view(bitops.WORD_DTYPE).copy()

    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Exactly the bitmap size, independent of fill."""
        return bitops.words_for_bits(nbits) * 8.0
