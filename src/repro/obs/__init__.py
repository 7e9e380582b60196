"""End-to-end run telemetry: span tracer, metrics, trace exporters.

The observability layer the paper's profiling figures (11, 12, 14) imply:
per-level, per-rank, per-collective accounting of where simulated time
goes, recorded live by instrumentation hooks in the engine, the level
kernels and the simulated communicator.

* :mod:`repro.obs.tracer` — nestable spans + per-collective events;
  off-by-default :data:`~repro.obs.tracer.NULL_TRACER` keeps the hot
  path free when telemetry is disabled.
* :mod:`repro.obs.metrics` — counters / gauges / histograms behind a
  label-aware registry.
* :mod:`repro.obs.export` — Chrome trace-event JSON (one track per
  simulated rank, simulated timestamps; open in Perfetto), JSONL event
  log, terminal summary table.
* :mod:`repro.obs.analyze` — critical-path attribution (the Fig. 11
  breakdown computed from a trace) and model-drift detection.
* :mod:`repro.obs.baseline` — canonical schema + policy-aware differ
  over the committed ``BENCH_*.json`` baselines.
* :mod:`repro.obs.perfcli` — the ``repro-perf`` command
  (attribute / drift / diff).
* :mod:`repro.obs.ledger` — append-only ``repro.run/v1`` JSONL store of
  every measured run (commit, config fingerprint, headline metrics,
  attribution, environment provenance).
* :mod:`repro.obs.trend` — rolling-median + MAD trend check of each
  ledger series' latest run against its own history.
* :mod:`repro.obs.hostprof` — opt-in host-side phase profiling (wall,
  cProfile collapsed stacks, tracemalloc peaks); off-by-default
  :data:`~repro.obs.hostprof.NULL_HOSTPROF` mirrors the null tracer.
* :mod:`repro.obs.dash` — standalone static HTML dashboard over the
  ledger (inline SVG, no dependencies).
* :mod:`repro.obs.log` — ``REPRO_LOG`` structured stdlib logging for
  CLI diagnostics.
* :mod:`repro.obs.ledgercli` — the ``repro-ledger`` command
  (log / list / show / check / dash).
* :mod:`repro.obs.expo` — OpenMetrics/Prometheus text exposition of a
  metrics registry (plus the strict parser used in round-trip tests).
* :mod:`repro.obs.opsserver` — stdlib-only live ops HTTP server
  (``/metrics``, ``/healthz``, ``/debug/state``) behind
  ``repro-serve --ops-port``.
* :mod:`repro.obs.slo` — SLO objectives, multiwindow burn-rate
  evaluation, and the ``repro.slo/v1`` ledger record.

See ``docs/OBSERVABILITY.md`` for the span model, event schema, and the
attribution / drift / diff / ledger / trend walkthroughs.
"""

from repro.obs.expo import (
    CONTENT_TYPE,
    ExpositionError,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.export import (
    chrome_trace,
    events_jsonl,
    rank_timeline,
    request_chain,
    serve_chrome_trace,
    summary_table,
    write_chrome_trace,
    write_events_jsonl,
    write_serve_trace,
)
from repro.obs.hostprof import (
    NULL_HOSTPROF,
    HostPhase,
    HostProfile,
    HostProfiler,
    NullHostProfiler,
)
from repro.obs.log import get_logger, setup_logging
from repro.obs.opsserver import NULL_OPS, NullOpsServer, OpsServer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CommEvent,
    NullTracer,
    RunTelemetry,
    Span,
    SpanTracer,
)

__all__ = [
    "Span",
    "CommEvent",
    "NullTracer",
    "SpanTracer",
    "RunTelemetry",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
    "rank_timeline",
    "chrome_trace",
    "write_chrome_trace",
    "serve_chrome_trace",
    "write_serve_trace",
    "request_chain",
    "events_jsonl",
    "write_events_jsonl",
    "summary_table",
    "CONTENT_TYPE",
    "ExpositionError",
    "render_openmetrics",
    "parse_openmetrics",
    "OpsServer",
    "NullOpsServer",
    "NULL_OPS",
    "SLOObjective",
    "SLOSpec",
    "SLOMonitor",
    "record_for_slo_report",
    "LevelAttribution",
    "RunAttribution",
    "attribute_run",
    "attribute_timing",
    "DriftComponent",
    "ModelDriftReport",
    "detect_model_drift",
    "Baseline",
    "BenchRecord",
    "DiffRow",
    "DiffVerdict",
    "diff_baselines",
    "HostPhase",
    "HostProfile",
    "HostProfiler",
    "NullHostProfiler",
    "NULL_HOSTPROF",
    "get_logger",
    "setup_logging",
    "LedgerRecord",
    "RunLedger",
    "default_ledger",
    "environment_provenance",
    "record_for_result",
    "TrendReport",
    "check_records",
    "render_dashboard",
    "write_dashboard",
]

# analyze/baseline pull in repro.core (and transitively repro.mpi, which
# itself imports repro.obs.tracer), so they are resolved lazily to keep
# this package importable from anywhere in that chain.
_LAZY = {
    "LevelAttribution": "repro.obs.analyze",
    "RunAttribution": "repro.obs.analyze",
    "attribute_run": "repro.obs.analyze",
    "attribute_timing": "repro.obs.analyze",
    "DriftComponent": "repro.obs.analyze",
    "ModelDriftReport": "repro.obs.analyze",
    "detect_model_drift": "repro.obs.analyze",
    "Baseline": "repro.obs.baseline",
    "BenchRecord": "repro.obs.baseline",
    "DiffRow": "repro.obs.baseline",
    "DiffVerdict": "repro.obs.baseline",
    "diff_baselines": "repro.obs.baseline",
    "LedgerRecord": "repro.obs.ledger",
    "RunLedger": "repro.obs.ledger",
    "default_ledger": "repro.obs.ledger",
    "environment_provenance": "repro.obs.ledger",
    "record_for_result": "repro.obs.ledger",
    "TrendReport": "repro.obs.trend",
    "check_records": "repro.obs.trend",
    "SLOObjective": "repro.obs.slo",
    "SLOSpec": "repro.obs.slo",
    "SLOMonitor": "repro.obs.slo",
    "record_for_slo_report": "repro.obs.slo",
    "render_dashboard": "repro.obs.dash",
    "write_dashboard": "repro.obs.dash",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
