"""The serve-chaos campaign: injected serving faults, verified recovery.

One scenario run is three phases of open-loop load against a single
:class:`~repro.serve.scheduler.BatchScheduler` whose session and
dispatcher are wrapped by a :class:`ServeFaultInjector`:

* **baseline** — clean traffic that warms the result cache, the
  hedge-threshold histogram and the SLO sample history;
* **injection** — the injector is armed and the scenario's faults fire
  on deterministic batch counters while traffic continues; the SLO
  monitor is evaluated at the phase boundary and must *detect the burn*
  (for latency-visible faults);
* **recovery** — clean traffic again, long enough to flush the burn
  windows; the final SLO evaluation must come back ``ok``.

A scenario **recovers** when every query got exactly one terminal
result (a successful answer, a stale-degraded answer, or a structured
rejection — never a hang, never a raw exception), the expected
resilience mechanism actually engaged (restart + replay for dispatcher
kills, hedging for stragglers, retry for session errors, poison
detection for cache poison), spot-checked answers match a clean
session bit-for-bit, and the SLO verdict sequence is
burn-during / ok-after.  The campaign report uses the ``repro.chaos/v1``
schema with ``mode: "serve"`` and lands in the run ledger next to the
simulator chaos campaigns.
"""

from __future__ import annotations

import asyncio
import time
import zlib

import numpy as np

from repro.core.config import BFSConfig
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultError,
    ReproError,
    ServeOverloadError,
)
from repro.faults.plan import FaultPlan, ServeFault
from repro.faults.serveinject import ServeFaultInjector
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.obs.ledger import LedgerRecord, config_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor, SLOObjective, SLOSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import BFSService

__all__ = [
    "SCHEMA",
    "available_serve_scenarios",
    "record_from_serve_chaos",
    "run_serve_campaign",
    "serve_plan",
]

SCHEMA = "repro.chaos/v1"

#: Queries whose answers burn the latency budget still *succeed* —
#: the objective is deliberately tighter than an injected fault's
#: recovery latency so the monitor must notice every injection.
_SLO_P99_MS = 50.0
_SLO_ERROR_RATE = 0.2


def _jitter(seed: int, name: str) -> int:
    """Deterministic 0..2 batch offset so the seed moves the schedule."""
    return zlib.crc32(repr((int(seed), name)).encode("ascii")) % 3


def _distinct_roots(graph, count: int, seed: int) -> np.ndarray:
    """``count`` *distinct* positive-degree roots.

    :func:`pick_root_pool` samples with replacement (hot-root load
    shapes want repeats); the campaign instead needs every
    injection-phase query to miss the result cache, so roots must not
    collide across phases.
    """
    degrees = graph.degrees()
    candidates = np.flatnonzero(degrees > 0)
    rng = np.random.default_rng(seed)
    count = min(int(count), int(candidates.size))
    return rng.choice(candidates, size=count, replace=False).astype(np.int64)


def serve_plan(name: str, seed: int = 0) -> FaultPlan:
    """The named serving-fault scenario as a :class:`FaultPlan`.

    ``at_batch`` offsets are derived from the seed, so two seeds strike
    at different points of the injection phase while one seed replays
    identically.
    """
    builder = _SERVE_SCENARIOS.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown serve-chaos scenario {name!r}; available: "
            f"{', '.join(available_serve_scenarios())}"
        )
    return builder(int(seed))


def _session_error(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        serve=(
            ServeFault(
                kind="session-error",
                at_batch=_jitter(seed, "session-error"),
            ),
        ),
    )


def _straggler(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        serve=(
            ServeFault(
                kind="straggler",
                at_batch=_jitter(seed, "straggler"),
                delay_s=0.4,
            ),
        ),
    )


def _dispatcher_kill(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        serve=(
            ServeFault(
                kind="dispatcher-kill",
                at_batch=_jitter(seed, "dispatcher-kill"),
            ),
        ),
    )


def _cache_poison(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed, serve=(ServeFault(kind="cache-poison", at_batch=0),)
    )


def _mixed(seed: int) -> FaultPlan:
    # The CI scenario: a dispatcher kill and a session straggler in one
    # injection phase — supervision + replay and hedging both engage.
    return FaultPlan(
        seed=seed,
        serve=(
            ServeFault(kind="dispatcher-kill", at_batch=0),
            ServeFault(
                kind="straggler",
                at_batch=1 + _jitter(seed, "mixed-straggler"),
                delay_s=0.4,
            ),
        ),
    )


_SERVE_SCENARIOS = {
    "session-error": _session_error,
    "straggler": _straggler,
    "dispatcher-kill": _dispatcher_kill,
    "cache-poison": _cache_poison,
    "mixed": _mixed,
}


def available_serve_scenarios() -> tuple[str, ...]:
    """Names of the built-in serve-chaos scenarios, in sweep order."""
    return tuple(_SERVE_SCENARIOS)


async def _drive_phase(
    scheduler,
    roots,
    qps: float,
    deadline_ms: float | None,
    outcomes: dict,
    answers: dict,
) -> None:
    """Offer ``roots`` open-loop at ``qps``; bucket every terminal result.

    Every query ends in exactly one bucket — ``success`` (answers are
    kept for the correctness spot-check), ``deadline``, ``rejected``
    (structured admission refusals), ``fault`` (an injected fault
    escaped every retry) or ``error`` (anything else; always a scenario
    failure).
    """

    async def one(delay: float, root: int) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            result = await scheduler.submit(root, deadline_ms=deadline_ms)
        except DeadlineExceededError:
            outcomes["deadline"] += 1
        except ServeOverloadError:
            outcomes["rejected"] += 1
        except FaultError:
            outcomes["fault"] += 1
        except Exception:
            outcomes["error"] += 1
        else:
            outcomes["success"] += 1
            answers[root] = result

    gap = 1.0 / qps if qps and qps != float("inf") else 0.0
    await asyncio.gather(
        *(one(i * gap, int(root)) for i, root in enumerate(roots))
    )


async def _run_scenario(
    name: str,
    plan: FaultPlan,
    service,
    graph,
    cluster,
    config,
    seed: int,
) -> dict:
    registry = MetricsRegistry()
    injector = ServeFaultInjector(plan)
    session = injector.wrap_session(
        service.session(graph, cluster, config, metrics=None)
    )
    policy = ResiliencePolicy(
        max_queue_depth=256,
        shed_policy="reject",
        hedge=True,
        hedge_percentile=99.0,
        hedge_min_ms=100.0,
        hedge_warmup=2,
        retry_failed=True,
        breaker_threshold=5,
        breaker_cooldown_s=0.5,
        supervise=True,
        restart_backoff_s=0.05,
        restart_backoff_max_s=0.5,
        max_restarts=5,
    )
    spec = SLOSpec(
        name="serve-chaos",
        objectives=(
            SLOObjective(kind="latency", threshold_ms=_SLO_P99_MS),
            SLOObjective(kind="error_rate", max_rate=_SLO_ERROR_RATE),
        ),
        fast_window_s=0.75,
        slow_window_s=1.5,
    )
    monitor = SLOMonitor(registry, spec)
    scheduler = BatchScheduler(
        session,
        max_batch=16,
        max_wait_ms=1.0,
        result_cache=256,
        metrics=registry,
        resilience=policy,
        faults=injector,
    )
    outcomes = {
        "success": 0,
        "deadline": 0,
        "rejected": 0,
        "fault": 0,
        "error": 0,
    }
    answers: dict[int, object] = {}
    # Distinct root sets per phase: baseline/injection queries each hit a
    # fresh root so every query exercises a real batch; the cache-poison
    # scenario instead *reuses* its injection roots so poisoned entries
    # get re-read (detection needs a second lookup).  Its injection phase
    # is two waves: each root once, awaited, then the duplicates.  A
    # duplicate sent while the first (poisoned) put is still in flight
    # would miss the cache, re-run its root and overwrite the poison.
    pool = _distinct_roots(graph, 72, seed=seed)
    roots_a = pool[:24]
    if name == "cache-poison":
        small = pool[24:28]
        waves_b = [small, np.concatenate([small, small])]
        roots_c = np.resize(small, 44)
    else:
        waves_b = [pool[24:48]]
        roots_c = np.resize(pool[48:72], 44)

    stop_sampling = asyncio.Event()

    async def sampler() -> None:
        while not stop_sampling.is_set():
            monitor.sample()
            try:
                await asyncio.wait_for(stop_sampling.wait(), 0.1)
            except asyncio.TimeoutError:
                continue

    async with scheduler:
        sample_task = asyncio.get_running_loop().create_task(sampler())
        try:
            # Phase A: clean baseline (warms hedging stats + SLO history).
            await _drive_phase(
                scheduler, roots_a, 200.0, 2000.0, outcomes, answers
            )
            await asyncio.sleep(0.2)
            # Phase B: injection.  A finite (but hot) rate spreads the
            # queries over many small batches, so every deterministic
            # at_batch offset in the scenario catalogue is reached.
            injector.arm()
            for wave in waves_b:
                await _drive_phase(
                    scheduler, wave, 300.0, 4000.0, outcomes, answers
                )
            monitor.sample()
            slo_during = monitor.evaluate()
            # Phase C: recovery — clean traffic long enough that both
            # burn windows contain only post-fault events.
            await _drive_phase(
                scheduler, roots_c, 20.0, 2000.0, outcomes, answers
            )
            await asyncio.sleep(0.1)
            monitor.sample()
            slo_after = monitor.evaluate()
            stats = scheduler.stats()
        finally:
            stop_sampling.set()
            await sample_task

    # Correctness spot-check: served answers vs a clean session.
    truth = service.session(graph, cluster, config)
    checked = 0
    correct = True
    for root in list(answers)[:5]:
        result = answers[root]
        expected = truth.run(int(root))
        checked += 1
        if int(result.root) != int(root) or not np.array_equal(
            result.parent, expected.parent
        ):
            correct = False

    counts = (stats.get("resilience") or {}).get("counts", {})
    kinds = {s.kind for s in plan.serve}
    checks = {
        "all_queries_terminal": (
            sum(outcomes.values())
            == len(roots_a) + sum(map(len, waves_b)) + len(roots_c)
        ),
        "no_unstructured_errors": (
            outcomes["error"] == 0 and outcomes["fault"] == 0
        ),
        "answers_correct": correct and checked > 0,
        "slo_recovered": slo_after["verdict"] == "ok",
    }
    # Latency-visible faults must be *detected* by the burn-rate monitor
    # at the injection boundary; session errors and cache poison recover
    # too fast for the latency objective, so their detection check is
    # the mechanism engaging instead.
    if kinds & {"straggler", "dispatcher-kill"}:
        checks["slo_burn_detected"] = slo_during["verdict"] != "ok"
    if "dispatcher-kill" in kinds:
        checks["dispatcher_restarted"] = counts.get("restarts", 0) >= 1
        checks["queries_replayed"] = counts.get("replayed", 0) >= 1
    if "straggler" in kinds:
        checks["hedge_fired"] = counts.get("hedges", 0) >= 1
    if "session-error" in kinds:
        checks["retry_fired"] = counts.get("retries", 0) >= 1
    if "cache-poison" in kinds:
        checks["poison_detected"] = counts.get("poison_detected", 0) >= 1
    outcome = "recovered" if all(checks.values()) else "failed"
    return {
        "name": name,
        "outcome": outcome,
        "plan": plan.as_dict(),
        "events": injector.events_as_dicts(),
        "queries": outcomes,
        "checks": checks,
        "stale_served": counts.get("stale_served", 0),
        "slo_during": {
            "verdict": slo_during["verdict"],
            "objectives": {
                o["label"]: o["verdict"] for o in slo_during["objectives"]
            },
        },
        "slo_after": slo_after,
        "scheduler": stats,
        "correctness_spot_checks": checked,
    }


def run_serve_campaign(
    scenarios: list[str],
    *,
    scale: int = 10,
    nodes: int = 2,
    ppn: int | None = None,
    seed: int = 0,
    graph_seed: int = 2,
) -> dict:
    """Run the named serve-chaos scenarios; returns the campaign report.

    One graph and prepared-graph cache are shared across scenarios (the
    faults live in the serving layer, not the partition); each scenario
    gets its own scheduler, metrics registry, injector and SLO monitor.
    """
    graph = rmat_graph(scale=scale, seed=graph_seed)
    cluster = paper_cluster(nodes=nodes)
    config = BFSConfig.original_ppn8()
    if ppn is not None:
        from dataclasses import replace

        config = replace(config, ppn=ppn)
    service = BFSService(cluster=cluster)
    # Warm the prepared graph once so scenario timings exclude the build.
    service.session(graph, cluster, config)
    entries = []
    for name in scenarios:
        plan = serve_plan(name, seed=seed)
        try:
            entry = asyncio.run(
                _run_scenario(
                    name, plan, service, graph, cluster, config, seed
                )
            )
        except ReproError as exc:
            entry = {
                "name": name,
                "outcome": "aborted",
                "plan": plan.as_dict(),
                "error": exc.to_dict(),
            }
        entries.append(entry)
    return {
        "schema": SCHEMA,
        "mode": "serve",
        "scale": scale,
        "nodes": nodes,
        "ppn": ppn,
        "seed": seed,
        "graph_seed": graph_seed,
        "scenarios": entries,
        "ok": bool(entries)
        and all(e["outcome"] == "recovered" for e in entries),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def record_from_serve_chaos(report: dict, source: str = "") -> LedgerRecord:
    """A ledger record (kind ``chaos``) from one serve-chaos report."""
    if report.get("schema") != SCHEMA or report.get("mode") != "serve":
        raise ValueError(
            f"not a serve-chaos report: schema {report.get('schema')!r} "
            f"mode {report.get('mode')!r}"
        )
    axes = {
        "mode": "serve",
        "scale": report.get("scale"),
        "nodes": report.get("nodes"),
        "ppn": report.get("ppn"),
        "seed": report.get("seed"),
    }
    scenarios = report.get("scenarios", [])
    metrics: dict[str, float] = {
        "scenarios": float(len(scenarios)),
        "recovered": float(
            sum(1 for s in scenarios if s.get("outcome") == "recovered")
        ),
        "ok": 1.0 if report.get("ok") else 0.0,
    }
    for entry in scenarios:
        counts = (
            (entry.get("scheduler") or {}).get("resilience") or {}
        ).get("counts", {})
        for key in ("restarts", "replayed", "hedges", "retries",
                    "poison_detected"):
            if counts.get(key):
                metrics[f"{entry['name']}.{key}"] = float(counts[key])
    return LedgerRecord(
        kind="chaos",
        name="serve-chaos",
        fingerprint=config_fingerprint(axes),
        config=axes,
        metrics=metrics,
        labels={
            "source": source or "repro-chaos",
            "mode": "serve",
            "outcomes": ",".join(
                f"{s['name']}={s.get('outcome')}" for s in scenarios
            ),
        },
        extra={
            "checks": {
                s["name"]: s.get("checks", {}) for s in scenarios
            },
        },
    )
