"""Deterministic open-loop load generator for the serving layer.

*Open loop* means arrivals are scheduled on a clock (query ``i``
arrives at ``i / qps`` seconds), not gated on completions — the
generator keeps offering load even when the scheduler falls behind, so
queueing delay shows up in the measured latencies instead of silently
throttling the experiment (the classic closed-loop coordinated-omission
trap).

Sources are drawn from a seeded *root pool*: a small pool re-queries
hot roots (exercising the result cache), a pool as large as the query
count makes every query cold.  Everything is deterministic given
``seed``; only wall-clock timings vary run to run.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    GraphError,
    ServeOverloadError,
)
from repro.serve.scheduler import BatchScheduler

__all__ = ["LoadGenResult", "pick_root_pool", "run_load"]


def pick_root_pool(graph, size: int, seed: int = 0) -> np.ndarray:
    """Choose ``size`` query roots among vertices with outgoing edges.

    Zero-degree vertices make degenerate single-vertex traversals, so
    they are excluded (matching the Graph500 sampling convention used
    by :func:`~repro.core.teps.run_graph500`).
    """
    if size < 1:
        raise ConfigError("root pool needs size >= 1")
    degrees = graph.degrees()
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        raise GraphError("graph has no edges to traverse")
    rng = np.random.default_rng(seed)
    return candidates[
        rng.integers(0, candidates.size, size=int(size), dtype=np.int64)
    ]


@dataclass
class LoadGenResult:
    """Everything one load-generation run measured."""

    queries: int
    qps_offered: float
    wall_seconds: float
    latency_ms: dict = field(default_factory=dict)
    scheduler: dict = field(default_factory=dict)
    #: Distinct roots actually queried (diagnostic, not replayed).
    distinct_roots: int = 0
    #: Per-query deadline offered to the scheduler (None = unbounded).
    deadline_ms: float | None = None
    #: Queries shed by admission control (queue full / breaker open).
    rejected: int = 0
    #: Queries whose deadline expired before a result materialised.
    deadline_expired: int = 0

    @property
    def completed(self) -> int:
        """Queries that actually produced a BFS result."""
        return self.queries - self.rejected - self.deadline_expired

    @property
    def qps_achieved(self) -> float:
        """Completed queries per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> dict:
        """The measurements as a plain JSON-ready dict (an unbounded
        burst's offered rate serializes as ``None``, not ``inf``)."""
        offered = self.qps_offered
        return {
            "queries": self.queries,
            "qps_offered": offered if math.isfinite(offered) else None,
            "qps_achieved": self.qps_achieved,
            "wall_seconds": self.wall_seconds,
            "latency_ms": dict(self.latency_ms),
            "scheduler": dict(self.scheduler),
            "distinct_roots": self.distinct_roots,
            "deadline_ms": self.deadline_ms,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_expired": self.deadline_expired,
        }


async def _drive(
    scheduler: BatchScheduler,
    roots,
    qps: float,
    slo_monitor=None,
    deadline_ms: float | None = None,
) -> tuple[float, int, int]:
    """Submit every query at its open-loop arrival time; returns the
    wall-clock seconds from first arrival to last completion plus the
    counts of queries shed by admission control and expired on
    deadline.  Shedding and deadline misses are *expected* outcomes —
    they are tallied, not raised — while any other failure still
    propagates.

    When an :class:`~repro.obs.slo.SLOMonitor` rides along, a sampler
    task snapshots the registry at the monitor's interval while load
    flows (plus one final sample), so burn-rate windows have points to
    compare.
    """

    async def one(delay: float, root: int):
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            result = await scheduler.submit(root, deadline_ms=deadline_ms)
        except ServeOverloadError:
            return "rejected"
        except DeadlineExceededError:
            return "deadline"
        return "ok" if result is not None else None

    async def sample_forever():
        while True:
            slo_monitor.sample()
            await asyncio.sleep(slo_monitor.interval)

    start = time.perf_counter()
    sampler = None
    async with scheduler:
        if slo_monitor is not None:
            slo_monitor.sample()
            sampler = asyncio.get_running_loop().create_task(
                sample_forever()
            )
        try:
            results = await asyncio.gather(
                *(
                    one(i / qps if qps != float("inf") else 0.0, int(r))
                    for i, r in enumerate(roots)
                )
            )
        finally:
            if sampler is not None:
                sampler.cancel()
                try:
                    await sampler
                except asyncio.CancelledError:
                    pass
                slo_monitor.sample()
    elapsed = time.perf_counter() - start
    if any(r is None for r in results):  # pragma: no cover - invariant
        raise AssertionError("load generator lost a query result")
    rejected = sum(1 for r in results if r == "rejected")
    expired = sum(1 for r in results if r == "deadline")
    return elapsed, rejected, expired


def run_load(
    session,
    queries: int = 100,
    qps: float = float("inf"),
    root_pool: int = 16,
    seed: int = 0,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    result_cache: int | None = 256,
    metrics=None,
    roots=None,
    tracer=None,
    slo_monitor=None,
    scheduler: BatchScheduler | None = None,
    resilience=None,
    deadline_ms: float | None = None,
) -> LoadGenResult:
    """Run one synthetic open-loop campaign against ``session``.

    Builds a :class:`BatchScheduler` with the given knobs (or drives a
    caller-supplied one — the ops-server path wires its own up front so
    health probes can watch it), offers ``queries`` arrivals at ``qps``
    (``inf`` = all at once), and returns the measured
    :class:`LoadGenResult` — latency percentiles come from the
    scheduler's ``serve.latency_ms`` histogram.  An explicit ``roots``
    sequence replaces the pool sampling (the sequential-comparison mode
    replays an exact root list).  ``tracer`` threads request-scoped
    tracing through the scheduler; ``slo_monitor`` is sampled while
    load flows.  ``deadline_ms`` sets a per-query deadline, with or
    without ``resilience`` (a
    :class:`~repro.serve.resilience.ResiliencePolicy`, which turns
    admission control on) — queries shed or expired are tallied in the
    result rather than aborting the campaign.
    """
    if qps <= 0:
        raise ConfigError("qps must be positive (use inf for a burst)")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ConfigError("deadline_ms must be positive when set")
    if roots is not None:
        roots = np.asarray(roots, dtype=np.int64)
        queries = int(roots.size)
    if queries < 1:
        raise ConfigError("need at least one query")
    if roots is None:
        pool = pick_root_pool(session.graph, root_pool, seed=seed)
        rng = np.random.default_rng(seed + 1)
        roots = pool[rng.integers(0, pool.size, size=int(queries))]
    if scheduler is None:
        scheduler = BatchScheduler(
            session,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            result_cache=result_cache,
            metrics=metrics,
            tracer=tracer,
            resilience=resilience,
        )
    wall, rejected, expired = asyncio.run(
        _drive(scheduler, roots, qps, slo_monitor, deadline_ms=deadline_ms)
    )
    latency = scheduler.metrics.histogram("serve.latency_ms").summary()
    return LoadGenResult(
        queries=int(queries),
        qps_offered=float(qps),
        wall_seconds=wall,
        latency_ms=latency,
        scheduler=scheduler.stats(),
        distinct_roots=int(np.unique(roots).size),
        deadline_ms=deadline_ms,
        rejected=rejected,
        deadline_expired=expired,
    )
