"""BFS-as-a-service: prepared-graph sessions and a concurrent query layer.

The rest of the repository answers one query at a time: build an engine,
traverse, throw the partition away.  This package turns that into a
serving stack for many concurrent ``(graph, source)`` queries:

* :class:`~repro.serve.session.BFSService` /
  :class:`~repro.serve.session.GraphSession` — the session API: prepared
  graphs (immutable CSR partitions) cached in an LRU and shared across
  every query that agrees on the partition configuration;
* :class:`~repro.serve.scheduler.BatchScheduler` — an asyncio admission
  queue that coalesces compatible queries into multi-source batches (up
  to 64 lanes per traversal, :mod:`repro.core.multisource`) and memoizes hot
  ``(graph, source)`` results;
* :mod:`repro.serve.loadgen` — a deterministic open-loop load generator;
* :mod:`repro.serve.report` — the ``repro.serve/v1`` latency report;
* :mod:`repro.serve.cli` — the ``repro-serve`` console entry point,
  including the live-operations flags (``--ops-port`` for the
  :mod:`repro.obs.opsserver` HTTP endpoints, ``--trace-out`` for
  request-scoped tracing, ``--slo-*`` for :mod:`repro.obs.slo`
  burn-rate verdicts).

Batching is a wall-clock optimization only: every result handed back by
the scheduler is bit-identical to a sequential ``run_bfs`` for that
source (see docs/SERVING.md).
"""

from repro.serve.loadgen import LoadGenResult, run_load
from repro.serve.report import SCHEMA, build_report
from repro.serve.resilience import (
    SHED_POLICIES,
    CancelToken,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.serve.scheduler import BatchScheduler, ResultCache
from repro.serve.session import BFSService, GraphSession

__all__ = [
    "BFSService",
    "GraphSession",
    "BatchScheduler",
    "ResultCache",
    "LoadGenResult",
    "run_load",
    "SCHEMA",
    "build_report",
    "SHED_POLICIES",
    "CancelToken",
    "CircuitBreaker",
    "ResiliencePolicy",
]
