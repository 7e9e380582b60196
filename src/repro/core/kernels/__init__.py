"""Pluggable BFS kernel backends.

The engine's compute kernels (the bottom-up scan — one call per level
and lane over every rank — and the top-down step, one call per level
over every rank and lane) live behind a small registry so alternative
implementations can be swapped without touching the engine.  Three
backends ship:

``reference``
    The original full-materialization kernels
    (:class:`~repro.core.kernels.reference.ReferenceBackend`) — the
    accounting oracle.
``activeset``
    Chunked early-exit scan
    (:class:`~repro.core.kernels.activeset.ActiveSetBackend`) — memory
    and bitmap probes scale with *examined* edges; the default.  On a
    level whose frontier touches few arcs (an all-bottom-up level 0) it
    counts every rank at once from the frontier's side, which is exact
    on a symmetric :class:`~repro.graph.types.Graph`.
``cnative``
    Native compiled kernels
    (:class:`~repro.core.kernels.cnative.CNativeBackend`) — a small C
    source compiled on first use and called through ctypes; the true
    per-vertex early exit and a fused top-down step that materializes
    no pairs.  Requires
    a system C compiler: when none is found (or the build fails) the
    backend reports itself unavailable and resolution degrades to
    ``activeset`` with a structured warning.

Selection precedence: ``BFSConfig.kernel`` (explicit) → the
``REPRO_KERNEL`` environment variable → :data:`DEFAULT_BACKEND`; every
engine that selects a backend shares its one registry instance.  Every
backend is bit-identical on the paper's accounting, so the choice never
changes a priced result — see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os

from repro.core.kernels.activeset import ActiveSetBackend
from repro.core.kernels.base import (
    FALLBACK_BACKEND,
    BottomUpResult,
    KernelBackend,
    TopDownResult,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.kernels.cnative import CNativeBackend
from repro.core.kernels.reference import ReferenceBackend

__all__ = [
    "ActiveSetBackend",
    "BottomUpResult",
    "CNativeBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "FALLBACK_BACKEND",
    "KernelBackend",
    "ReferenceBackend",
    "TopDownResult",
    "available_backends",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

#: Backend used when neither the config nor the environment picks one.
DEFAULT_BACKEND = "activeset"

#: Environment variable consulted when the config does not pin a backend.
ENV_VAR = "REPRO_KERNEL"


def _env_name() -> str:
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def default_backend() -> KernelBackend:
    """The process-default backend (``$REPRO_KERNEL`` or the built-in)."""
    return get_backend(_env_name())


def resolve_backend(config=None) -> KernelBackend:
    """Backend for one engine: ``config.kernel`` → env var → default.

    Every engine shares the registry's instance of its backend.
    """
    return get_backend(getattr(config, "kernel", None) or _env_name())
