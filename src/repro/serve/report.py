"""The ``repro.serve/v1`` latency report.

One serving campaign produces one report document: the workload axes
(graph, cluster, partition config), the load-generator knobs, the
measured latency distribution (p50/p90/p99 from the scheduler's
histogram), achieved throughput, cache effectiveness (prepared-graph
LRU and result LRU), and — when the campaign ran the sequential
comparison — the batched-vs-sequential queries/sec speedup.

The JSON artifact carries ``schema: repro.serve/v1``.
"""

from __future__ import annotations

__all__ = ["SCHEMA", "build_report"]

SCHEMA = "repro.serve/v1"


def build_report(
    workload: dict,
    load: dict,
    loadgen_result,
    prepared_stats: dict,
    comparison: dict | None = None,
    slo: dict | None = None,
) -> dict:
    """Assemble the ``repro.serve/v1`` report document.

    ``workload`` describes the graph/cluster/config axes, ``load`` the
    generator knobs, ``loadgen_result`` is the measured
    :class:`~repro.serve.loadgen.LoadGenResult`, ``prepared_stats`` the
    prepared-graph cache counters, ``comparison`` the optional
    sequential-baseline block, and ``slo`` the optional embedded
    ``repro.slo/v1`` evaluation of the campaign.

    When the campaign ran under a resilience policy the report carries
    a ``resilience`` block: the policy knobs, shed/hedge/retry/replay
    counters, breaker state, and the stale-serving marker
    (``stale_served > 0`` means some answers were slightly-stale cache
    entries served in degrade mode).  Without a policy the block is
    ``None`` — the schema stays ``repro.serve/v1`` either way.
    """
    measured = loadgen_result.as_dict()
    sched_stats = measured["scheduler"]
    resil_stats = (
        sched_stats.get("resilience")
        if isinstance(sched_stats, dict)
        else None
    )
    resilience = None
    if resil_stats is not None:
        counts = dict(resil_stats.get("counts") or {})
        resilience = {
            "policy": dict(resil_stats.get("policy") or {}),
            "degraded": bool(resil_stats.get("degraded", False)),
            "counts": counts,
            "breaker": resil_stats.get("breaker"),
            "deadline_ms": measured.get("deadline_ms"),
            "rejected": int(measured.get("rejected", 0)),
            "deadline_expired": int(measured.get("deadline_expired", 0)),
            "stale_served": int(counts.get("stale_served", 0)),
        }
    return {
        "schema": SCHEMA,
        "workload": dict(workload),
        "load": dict(load),
        "latency_ms": measured["latency_ms"],
        "throughput": {
            "qps_offered": measured["qps_offered"],
            "qps_achieved": measured["qps_achieved"],
            "wall_seconds": measured["wall_seconds"],
            "queries": measured["queries"],
            "completed": measured.get("completed", measured["queries"]),
            "distinct_roots": measured["distinct_roots"],
        },
        "scheduler": sched_stats,
        "resilience": resilience,
        "caches": {
            "prepared": dict(prepared_stats),
            "results": measured["scheduler"].get("result_cache"),
        },
        "comparison": dict(comparison) if comparison is not None else None,
        "slo": dict(slo) if slo is not None else None,
    }

