"""Cost-model-aware per-level codec selection.

``auto`` is not a wire format: it is a chooser.  Once per allgather it
scores every concrete codec with

``encode_time(raw part) + estimated wire bytes x link ns/byte
+ decode_time(estimated wire bytes)``

using the closed-form :meth:`~repro.mpi.codecs.base.FrontierCodec.
estimate_wire_bytes` of each candidate, the machine's
:class:`~repro.machine.costmodel.CodecCostModel` throughputs, and the
wire cost per payload byte of the *actual* allgather schedule
(:func:`~repro.mpi.collectives.allgather_time` of the raw payload over
its bytes; every step prices 0 at zero payload, so this is also the
marginal cost).  ``raw`` is priced with zero
encode/decode cost, so ``auto`` never does worse than today's wire
format by its own model; ties break toward ``raw``.
"""

from __future__ import annotations

from repro.errors import CommunicationError
from repro.mpi.codecs.base import (
    EncodedFrontier,
    FrontierCodec,
    get_codec,
    register_codec,
)

__all__ = ["AutoCodec", "CANDIDATE_CODECS"]

#: Concrete codecs ``auto`` chooses among, in tie-break order (earlier
#: wins on equal score; ``raw`` first so "no benefit" means "no change").
CANDIDATE_CODECS = ("raw", "rle-bitmap", "sparse-index", "sieve")


@register_codec
class AutoCodec(FrontierCodec):
    """Per-level chooser over :data:`CANDIDATE_CODECS`.

    The engine calls :meth:`select` with the level's aggregate fill
    statistics and the priced link cost, then encodes with the returned
    concrete codec.  ``encode``/``decode`` are deliberately unusable —
    a payload is always stamped with the concrete codec that produced
    it, never with ``auto``.
    """

    name = "auto"

    def select(
        self,
        *,
        nbits: int,
        set_bits: int,
        visited_bits: int,
        ns_per_wire_byte: float,
        model,
    ) -> FrontierCodec:
        """Pick the cheapest codec for one allgather payload.

        ``nbits``/``set_bits``/``visited_bits`` are totals across all
        parts of the collective; ``ns_per_wire_byte`` is the marginal
        schedule cost of one payload byte; ``model`` is the
        :class:`~repro.machine.costmodel.CodecCostModel` to charge
        encode/decode against.
        """
        raw = get_codec("raw")
        raw_bytes = raw.estimate_wire_bytes(nbits, set_bits)
        best = raw
        best_score = raw_bytes * ns_per_wire_byte
        for name in CANDIDATE_CODECS[1:]:
            codec = get_codec(name)
            wire = codec.estimate_wire_bytes(nbits, set_bits, visited_bits)
            score = (
                model.encode_time_ns(raw_bytes)
                + wire * ns_per_wire_byte
                + model.decode_time_ns(wire)
            )
            if score < best_score:
                best, best_score = codec, score
        return best

    def encode(
        self,
        words,
        *,
        bounds=None,
        nbits: int | None = None,
        visited=None,
    ) -> EncodedFrontier:
        """Unusable: resolve to a concrete codec via :meth:`select`."""
        raise CommunicationError(
            "the auto codec cannot encode; call select() to obtain a "
            "concrete codec first"
        )

    def decode(self, enc: EncodedFrontier, *, visited=None):
        """Unusable: payloads are stamped with their concrete codec."""
        raise CommunicationError(
            "the auto codec cannot decode; payloads carry the concrete "
            "codec that produced them"
        )

    def estimate_wire_bytes(
        self, nbits: int, set_bits: int, visited_bits: int = 0
    ) -> float:
        """Best candidate estimate (what selection would achieve)."""
        return min(
            get_codec(name).estimate_wire_bytes(
                nbits, set_bits, visited_bits
            )
            for name in CANDIDATE_CODECS
        )
