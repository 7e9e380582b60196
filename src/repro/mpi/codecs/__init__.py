"""Pluggable frontier codecs for the bottom-up allgather path.

The paper's Fig. 12 shows the two bottom-up allgathers dominating
runtime once NUMA binding is fixed; its follow-up line of work (Lv et
al., arXiv:1208.5542) cuts that volume with frontier compression and
visited-vertex sieving.  This package reproduces that layer as a
registry of interchangeable wire formats, mirroring the kernel-backend
registry of :mod:`repro.core.kernels`:

``raw``
    Today's behaviour — unframed bitmap words; the accounting oracle.
``rle-bitmap``
    Word-granular run-length encoding for near-empty/near-full bitmaps.
``sparse-index``
    Delta-varint list of set-bit positions for low-fill frontiers.
``sieve``
    Visited-bit subtraction (common knowledge from previous allgathers)
    with RLE/sparse inner coding.
``auto``
    Cost-model-aware per-level choice among the above.

Selection precedence: ``CommConfig.codec`` (explicit) → the
``REPRO_CODEC`` environment variable → :data:`DEFAULT_CODEC`.  Every
codec is lossless, so the BFS result and all priced event counts are
bit-identical across codecs — only simulated communication bytes and
seconds change.  One ``encode`` and one ``decode`` call cover every
rank's part of an allgather (``bounds`` splits the words; each part
keeps its own payload and framing byte — see :mod:`.base`).  See
docs/COMMUNICATION.md.
"""

from __future__ import annotations

from repro.mpi.codecs.auto import CANDIDATE_CODECS, AutoCodec
from repro.mpi.codecs.base import (
    DEFAULT_CODEC,
    ENV_VAR,
    WIRE_HEADER_BYTES,
    EncodedFrontier,
    FrontierCodec,
    available_codecs,
    default_codec,
    get_codec,
    register_codec,
    resolve_codec,
)
from repro.mpi.codecs.raw import RawCodec
from repro.mpi.codecs.rle import RleBitmapCodec
from repro.mpi.codecs.sieve import SieveCodec
from repro.mpi.codecs.sparse import SparseIndexCodec
from repro.mpi.codecs.varint import decode_varints, encode_varints

__all__ = [
    "AutoCodec",
    "CANDIDATE_CODECS",
    "DEFAULT_CODEC",
    "ENV_VAR",
    "EncodedFrontier",
    "FrontierCodec",
    "RawCodec",
    "RleBitmapCodec",
    "SieveCodec",
    "SparseIndexCodec",
    "WIRE_HEADER_BYTES",
    "available_codecs",
    "decode_varints",
    "default_codec",
    "encode_varints",
    "get_codec",
    "register_codec",
    "resolve_codec",
]
