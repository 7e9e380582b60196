"""``repro-serve`` console entry point: the serving-layer campaign.

Usage::

    repro-serve --scale 13 --nodes 2 --queries 128 --qps 400
    repro-serve --scale 14 --max-batch 32 --compare-sequential
    repro-serve --scale 12 --root-pool 4 --json serve-report.json

One invocation builds an R-MAT workload, opens a prepared-graph
session, drives the asyncio batch scheduler with the open-loop load
generator, and prints/records the ``repro.serve/v1`` latency report
(p50/p90/p99, throughput, cache hit rates).  ``--compare-sequential``
additionally replays a burst of distinct roots both through the
batched serving path and through a sequential ``run_bfs`` loop (one
fresh engine per query — the pre-serving architecture) and reports the
queries/sec speedup.

Resilience (all optional — without these flags the scheduler runs the
policy-free hot path): ``--deadline-ms`` bounds each query end to end,
``--max-queue`` + ``--shed-policy`` bound the admission queue,
``--no-hedge`` / ``--hedge-min-ms`` / ``--breaker-threshold`` /
``--no-supervise`` tune hedged retries, the circuit breaker and
dispatcher supervision, and ``--resilience`` enables the default
policy on its own.  The report gains a ``resilience`` block (shed and
stale-serving counters, hedges, retries, restarts).

Live operations (all optional, zero cost when absent):

* ``--ops-port`` starts the stdlib ops HTTP server next to the
  campaign — ``/metrics`` (OpenMetrics), ``/healthz``,
  ``/debug/state`` — and ``--ops-linger`` keeps it (and the process)
  up for N seconds after the load drains so scrapers can read final
  state;
* ``--slo-p99-ms`` / ``--slo-error-rate`` declare SLO objectives; the
  campaign is evaluated with fast/slow burn-rate windows and the
  ``repro.slo/v1`` verdict is embedded in the report;
* ``--trace-out`` records request-scoped tracing (queue-wait → batch →
  per-level engine spans, one chain per ``trace_id``) and writes the
  Perfetto-loadable serving trace.

``--json`` writes the full report artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.config import BFSConfig
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.serve.loadgen import run_load
from repro.serve.report import SCHEMA, build_report
from repro.serve.resilience import SHED_POLICIES, ResiliencePolicy
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import BFSService
from repro.util.formatting import format_table

__all__ = ["main", "run_serving_campaign"]

log = get_logger("serve")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Concurrent BFS serving campaign over the simulated NUMA "
            "cluster: batched multi-source traversals behind an asyncio "
            "admission queue, measured with an open-loop load generator"
        ),
    )
    parser.add_argument(
        "--scale", type=int, default=13,
        help="R-MAT graph scale (2^scale vertices)",
    )
    parser.add_argument(
        "--nodes", type=int, default=2, help="simulated node count"
    )
    parser.add_argument(
        "--ppn", type=int, default=None,
        help="processes per node (default: one per socket)",
    )
    parser.add_argument(
        "--kernel", choices=("reference", "activeset", "cnative"),
        help="bottom-up kernel backend (sets REPRO_KERNEL)",
    )
    parser.add_argument(
        "--codec",
        choices=("auto", "raw", "rle-bitmap", "sieve", "sparse-index"),
        help="frontier codec (sets REPRO_CODEC)",
    )
    parser.add_argument(
        "--queries", type=int, default=128,
        help="queries the load generator offers",
    )
    parser.add_argument(
        "--qps", type=float, default=0.0,
        help="open-loop offered rate in queries/sec (0 = unbounded burst)",
    )
    parser.add_argument(
        "--root-pool", type=int, default=16,
        help="distinct hot roots the generator samples from",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="scheduler batch cap (lanes per traversal, <= 64)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="scheduler wait for stragglers once a batch opens",
    )
    parser.add_argument(
        "--result-cache", type=int, default=256,
        help="result LRU capacity (0 disables result caching)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="load-generator seed"
    )
    parser.add_argument(
        "--graph-seed", type=int, default=2, help="R-MAT generator seed"
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-query deadline; expired queries are shed from the "
        "queue and cancelled mid-traversal (implies a resilience "
        "policy)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None, metavar="DEPTH",
        help="admission-queue bound; beyond it --shed-policy applies "
        "(implies a resilience policy)",
    )
    parser.add_argument(
        "--shed-policy", choices=SHED_POLICIES, default="reject",
        help="what to do when the queue is full: reject new work, "
        "drop-oldest queued work, or degrade (shrink batches, serve "
        "slightly-stale cached results)",
    )
    parser.add_argument(
        "--hedge-min-ms", type=float, default=50.0, metavar="MS",
        help="floor for the hedged-retry straggler threshold "
        "(default 50ms)",
    )
    parser.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged retries of straggling batches",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive batch failures that trip the circuit "
        "breaker (0 disables it)",
    )
    parser.add_argument(
        "--no-supervise", action="store_true",
        help="disable dispatcher supervision (restart + replay)",
    )
    parser.add_argument(
        "--resilience", action="store_true",
        help="enable the default resilience policy even without "
        "--deadline-ms/--max-queue",
    )
    parser.add_argument(
        "--compare-sequential",
        action="store_true",
        help="also replay a burst of --max-batch distinct roots through "
        "a sequential run_bfs loop and report the queries/sec speedup",
    )
    parser.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /debug/state on this port "
        "while the campaign runs (0 = ephemeral port)",
    )
    parser.add_argument(
        "--ops-host", default="127.0.0.1",
        help="bind address for the ops server (default 127.0.0.1)",
    )
    parser.add_argument(
        "--ops-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the ops server up this long after the load drains",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="latency objective: p99 of served requests <= MS",
    )
    parser.add_argument(
        "--slo-error-rate", type=float, default=None, metavar="RATE",
        help="error-rate objective: failed fraction <= RATE (e.g. 0.001)",
    )
    parser.add_argument(
        "--slo-fast-window", type=float, default=5.0, metavar="SECONDS",
        help="fast burn-rate window (default 5s)",
    )
    parser.add_argument(
        "--slo-slow-window", type=float, default=30.0, metavar="SECONDS",
        help="slow burn-rate window (default 30s)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="record request-scoped tracing and write the serving "
        "Chrome/Perfetto trace to PATH",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help=f"write the {SCHEMA} report as JSON to PATH",
    )
    return parser


def _distinct_roots(graph, count: int, seed: int) -> np.ndarray:
    """``count`` distinct positive-degree roots (comparison workload)."""
    degrees = graph.degrees()
    candidates = np.flatnonzero(degrees > 0)
    rng = np.random.default_rng(seed)
    count = min(int(count), int(candidates.size))
    return rng.choice(candidates, size=count, replace=False).astype(np.int64)


def _compare_sequential(service, graph, cluster, config, args) -> dict:
    """Replay one burst batched and sequentially; return the block."""
    from repro.core.api import run_bfs

    roots = _distinct_roots(graph, args.max_batch, seed=args.seed + 9973)
    # Batched side first: the serving path with a cold result cache so
    # the speedup measures batching, not memoization.
    session = service.session(graph, cluster, config)
    batched = run_load(
        session,
        qps=float("inf"),
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        result_cache=None,
        roots=roots,
    )
    t0 = time.perf_counter()
    for root in roots:
        run_bfs(graph, int(root), cluster=cluster, config=config)
    seq_wall = time.perf_counter() - t0
    seq_qps = roots.size / seq_wall if seq_wall else 0.0
    return {
        "roots": int(roots.size),
        "sequential_wall_seconds": seq_wall,
        "batched_wall_seconds": batched.wall_seconds,
        "sequential_qps": seq_qps,
        "batched_qps": batched.qps_achieved,
        "speedup": (
            batched.qps_achieved / seq_qps if seq_qps else 0.0
        ),
        "batched_latency_ms": dict(batched.latency_ms),
    }


def _build_resilience(args) -> ResiliencePolicy | None:
    """The resilience policy the flags declare (or None).

    The policy is opt-in: it exists only when ``--resilience``,
    ``--max-queue`` or ``--deadline-ms`` is given.  Deadlines hold
    without a policy too; the flag brings one along so the report's
    ``resilience`` block carries ``deadline_expired``.
    """
    wants = (
        args.resilience
        or args.deadline_ms is not None
        or args.max_queue is not None
    )
    if not wants:
        return None
    return ResiliencePolicy(
        max_queue_depth=args.max_queue,
        shed_policy=args.shed_policy,
        hedge=not args.no_hedge,
        hedge_min_ms=args.hedge_min_ms,
        breaker_threshold=args.breaker_threshold,
        supervise=not args.no_supervise,
    )


def _build_slo_spec(args):
    """The :class:`~repro.obs.slo.SLOSpec` the flags declare (or None)."""
    if args.slo_p99_ms is None and args.slo_error_rate is None:
        return None
    from repro.obs.slo import SLOObjective, SLOSpec

    objectives = []
    if args.slo_p99_ms is not None:
        objectives.append(
            SLOObjective(
                kind="latency", threshold_ms=args.slo_p99_ms, quantile=99.0
            )
        )
    if args.slo_error_rate is not None:
        objectives.append(
            SLOObjective(kind="error_rate", max_rate=args.slo_error_rate)
        )
    return SLOSpec(
        objectives=tuple(objectives),
        fast_window_s=args.slo_fast_window,
        slow_window_s=args.slo_slow_window,
    )


def run_serving_campaign(args) -> dict:
    """Execute one campaign from parsed CLI args; returns the report."""
    graph = rmat_graph(scale=args.scale, seed=args.graph_seed)
    cluster = paper_cluster(nodes=args.nodes)
    config = BFSConfig.original_ppn8()
    if args.ppn is not None:
        from dataclasses import replace

        config = replace(config, ppn=args.ppn)
    service = BFSService(cluster=cluster)
    registry = MetricsRegistry()

    tracer = None
    if args.trace_out:
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer()

    # Warm-up: a separate session (first prepared-cache miss) runs one
    # query so kernel dispatch and numpy paths are hot before timing.
    warm = service.session(graph, cluster, config)
    warm.run(int(_distinct_roots(graph, 1, seed=args.seed)[0]))

    session = service.session(graph, cluster, config, tracer=tracer)
    resilience = _build_resilience(args)
    scheduler = BatchScheduler(
        session,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        result_cache=args.result_cache if args.result_cache > 0 else None,
        metrics=registry,
        tracer=tracer,
        resilience=resilience,
    )

    workload = {
        "scale": args.scale,
        "graph_seed": args.graph_seed,
        "graph_digest": session.digest,
        "num_vertices": graph.num_vertices,
        "nodes": args.nodes,
        "ppn": session.prepared.ppn,
        "num_ranks": session.prepared.num_ranks,
        "config": config.label,
        "kernel": args.kernel or os.environ.get("REPRO_KERNEL") or "default",
        "codec": args.codec or os.environ.get("REPRO_CODEC") or "default",
    }
    load = {
        "queries": args.queries,
        "qps": args.qps if args.qps > 0 else None,
        "root_pool": args.root_pool,
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
        "result_cache": args.result_cache,
        "seed": args.seed,
        "deadline_ms": args.deadline_ms,
        "resilience": resilience.as_dict() if resilience else None,
    }

    slo_spec = _build_slo_spec(args)
    slo_monitor = None
    if slo_spec is not None:
        from repro.obs.slo import SLOMonitor

        slo_monitor = SLOMonitor(registry, slo_spec)

    ops = None
    if args.ops_port is not None:
        from repro.obs.ledger import config_fingerprint
        from repro.obs.opsserver import OpsServer

        fingerprint = config_fingerprint(workload)

        def debug_state() -> dict:
            return {
                "schema": "repro.debug/v1",
                "queue_depth": scheduler.queue_depth,
                "in_flight_batches": scheduler.in_flight,
                "scheduler": scheduler.stats(),
                "caches": {"prepared": service.prepared_stats()},
                "config_fingerprint": fingerprint,
                "workload": workload,
            }

        ops = OpsServer(
            metrics=registry,
            health={
                "scheduler": scheduler.health,
                "prepared_cache": lambda: (True, service.prepared_stats()),
            },
            state=debug_state,
            host=args.ops_host,
            port=args.ops_port,
        )

    try:
        if ops is not None:
            ops.start()
            log.info("ops server listening on %s", ops.url)
        loadgen_result = run_load(
            session,
            queries=args.queries,
            qps=args.qps if args.qps > 0 else float("inf"),
            root_pool=args.root_pool,
            seed=args.seed,
            scheduler=scheduler,
            slo_monitor=slo_monitor,
            deadline_ms=args.deadline_ms,
        )
        if ops is not None and args.ops_linger > 0:
            log.info(
                "ops server lingering %.1fs on %s", args.ops_linger, ops.url
            )
            time.sleep(args.ops_linger)
    finally:
        if ops is not None:
            ops.stop()

    slo_report = None
    if slo_monitor is not None:
        slo_report = slo_monitor.evaluate()
        log.info(
            "slo: %s (%d objectives, %d samples)",
            slo_report["verdict"],
            len(slo_report["objectives"]),
            slo_report["samples"],
        )

    if args.trace_out:
        from repro.obs.export import write_serve_trace

        write_serve_trace(args.trace_out, tracer)
        log.info(
            "serving trace (%d spans) written to %s",
            len(tracer.spans),
            args.trace_out,
        )

    comparison = None
    if args.compare_sequential:
        comparison = _compare_sequential(
            service, graph, cluster, config, args
        )

    return build_report(
        workload,
        load,
        loadgen_result,
        service.prepared_stats(),
        comparison=comparison,
        slo=slo_report,
    )


def _report_table(report: dict) -> str:
    """Render the headline numbers as an aligned text table."""
    latency = report["latency_ms"]
    throughput = report["throughput"]
    sched = report["scheduler"]
    caches = report["caches"]
    rows = [
        ("queries", f"{throughput['queries']}"),
        ("throughput (q/s)", f"{throughput['qps_achieved']:.1f}"),
        ("latency p50 (ms)", f"{latency['p50']:.2f}"),
        ("latency p90 (ms)", f"{latency['p90']:.2f}"),
        ("latency p99 (ms)", f"{latency['p99']:.2f}"),
        ("batches", f"{sched['batches']}"),
        ("mean batch size", f"{sched['mean_batch_size']:.1f}"),
        (
            "prepared cache hit rate",
            f"{caches['prepared']['hit_rate']:.2f}",
        ),
        (
            "result cache hit rate",
            f"{caches['results']['hit_rate']:.2f}"
            if caches["results"]
            else "off",
        ),
    ]
    resilience = report.get("resilience")
    if resilience:
        counts = resilience.get("counts") or {}
        rows.append(("rejected", f"{resilience.get('rejected', 0)}"))
        rows.append(
            ("deadline expired", f"{resilience.get('deadline_expired', 0)}")
        )
        rows.append(
            ("stale served", f"{resilience.get('stale_served', 0)}")
        )
        rows.append(("hedges", f"{counts.get('hedges', 0)}"))
        rows.append(("retries", f"{counts.get('retries', 0)}"))
        rows.append(
            ("dispatcher restarts", f"{counts.get('restarts', 0)}")
        )
    comparison = report.get("comparison")
    if comparison:
        rows.append(
            ("sequential (q/s)", f"{comparison['sequential_qps']:.1f}")
        )
        rows.append(("batched (q/s)", f"{comparison['batched_qps']:.1f}"))
        rows.append(("speedup", f"{comparison['speedup']:.2f}x"))
    slo = report.get("slo")
    if slo:
        rows.append(("slo verdict", slo["verdict"]))
        for obj in slo.get("objectives", []):
            rows.append((f"slo {obj['label']}", obj["verdict"]))
    workload = report["workload"]
    title = (
        f"repro-serve: scale {workload['scale']}, "
        f"{workload['nodes']} nodes, {workload['num_ranks']} ranks"
    )
    return format_table(("metric", "value"), rows, title=title)


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.kernel:
        os.environ["REPRO_KERNEL"] = args.kernel
    if args.codec:
        os.environ["REPRO_CODEC"] = args.codec
    if args.max_batch < 1:
        print("--max-batch must be >= 1", file=sys.stderr)
        return 2
    report = run_serving_campaign(args)
    print(_report_table(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("report written to %s", args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
