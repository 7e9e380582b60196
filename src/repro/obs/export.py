"""Telemetry exporters: Chrome trace-event JSON, JSONL log, terminal table.

The Chrome trace (load it at https://ui.perfetto.dev or
``chrome://tracing``) renders the *simulated* timeline of one BFS run:
one track per simulated MPI rank, one span per level phase (switch /
communication / compute / stall), with timestamps reconstructed from the
run's :class:`~repro.core.timing.BfsTiming` exactly as the cost model
priced it — per-rank compute durations, uniform collective times, and
barrier alignment at the end of every level (the stall phase).

The JSONL log serializes the wall-clock spans and per-collective
:class:`~repro.obs.tracer.CommEvent` records for ad-hoc analysis
(``jq``/pandas), and :func:`summary_table` renders a metrics registry as
a terminal table.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs <- core)
    from repro.core.engine import BFSResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import RunTelemetry

__all__ = [
    "rank_timeline",
    "chrome_trace",
    "write_chrome_trace",
    "serve_chrome_trace",
    "write_serve_trace",
    "request_chain",
    "events_jsonl",
    "write_events_jsonl",
    "summary_table",
]


def rank_timeline(result: "BFSResult") -> list[list[dict]]:
    """Per-rank lists of non-overlapping simulated phase intervals.

    Each interval is ``{"name", "cat", "level", "direction", "start_ns",
    "duration_ns", "args"}``; within one rank's list the intervals are
    monotone and disjoint, and every level ends with all ranks aligned at
    the barrier (ranks that finish compute early get a ``stall``
    interval).  Phase order mirrors the engine's level structure: the
    representation switch first, then — top-down — compute before the
    pair exchange, or — bottom-up — the allgathers before the scan.
    """
    num_ranks = result.counts.num_ranks
    tracks: list[list[dict]] = [[] for _ in range(num_ranks)]
    clock = np.zeros(num_ranks, dtype=np.float64)

    def add(rank: int, name: str, cat: str, lt, start: float, dur: float, args=None):
        if dur <= 0:
            return
        tracks[rank].append(
            {
                "name": name,
                "cat": cat,
                "level": lt.level,
                "direction": lt.direction,
                "start_ns": float(start),
                "duration_ns": float(dur),
                "args": args or {},
            }
        )

    for lt in result.timing.levels:
        comp = lt.compute_rank_ns
        if comp is None or len(comp) != num_ranks:
            comp = np.full(num_ranks, lt.compute_mean_ns)
        comp = np.asarray(comp, dtype=np.float64)
        comp_max = float(comp.max(initial=0.0))
        comm_first = lt.direction == "bottom_up"
        for r in range(num_ranks):
            t = clock[r]
            if lt.switch_ns > 0:
                add(r, "switch", "switch", lt, t, lt.switch_ns)
                t += lt.switch_ns
            if comm_first and lt.comm_ns > 0:
                add(r, f"comm:{lt.direction}", "comm", lt, t, lt.comm_ns,
                    args=dict(lt.comm_steps))
                t += lt.comm_ns
            add(r, f"compute:{lt.direction}", "compute", lt, t, comp[r])
            t += comp[r]
            if comp_max > comp[r]:
                add(r, "stall", "stall", lt, t, comp_max - comp[r])
                t += comp_max - comp[r]
            if not comm_first and lt.comm_ns > 0:
                add(r, f"comm:{lt.direction}", "comm", lt, t, lt.comm_ns,
                    args=dict(lt.comm_steps))
                t += lt.comm_ns
            clock[r] = t
        # Defensive alignment: all ranks leave the level at the barrier.
        clock[:] = clock.max(initial=0.0)
    return tracks


def chrome_trace(result: "BFSResult") -> dict:
    """One BFS run as a Chrome trace-event document (Perfetto-loadable).

    One process ("track") per simulated rank; ``ts``/``dur`` are the
    *simulated* timestamps in microseconds, as the trace-event format
    requires.  Level/direction and the collective step breakdown ride
    along in each event's ``args``.
    """
    events: list[dict] = []
    tracks = rank_timeline(result)
    for rank, intervals in enumerate(tracks):
        events.append(
            {
                "ph": "M",
                "pid": rank,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"rank {rank}"},
            }
        )
        for iv in intervals:
            args = {"level": iv["level"], "direction": iv["direction"]}
            args.update(iv["args"])
            events.append(
                {
                    "ph": "X",
                    "pid": rank,
                    "tid": 0,
                    "name": iv["name"],
                    "cat": iv["cat"],
                    "ts": iv["start_ns"] / 1e3,
                    "dur": iv["duration_ns"] / 1e3,
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "root": result.root,
            "levels": result.levels,
            "num_ranks": result.counts.num_ranks,
            "simulated_seconds": result.seconds,
            "teps": result.teps,
        },
    }


def write_chrome_trace(path: str, result: "BFSResult") -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(result), fh)


# ---------------------------------------------------------------------------
# Serving (wall-clock) trace
# ---------------------------------------------------------------------------


def serve_chrome_trace(tracer) -> dict:
    """A serving run's *wall-clock* spans as a Chrome trace document.

    Unlike :func:`chrome_trace` (one simulated run, simulated clock),
    this renders what the serving process itself did: the scheduler's
    pipeline — batch assembly, ``batch.run`` and its per-round ``level``
    engine spans, with each batched lane labelled ``lane L src V`` so
    multi-source batches are readable in Perfetto — on one track, and
    every request's ``serve.queue_wait`` / ``serve.cache_hit`` span on
    its own per-``trace_id`` track.  ``tracer`` is anything with a
    ``spans`` list (:class:`~repro.obs.tracer.SpanTracer` or
    :class:`~repro.obs.tracer.RunTelemetry`).
    """
    spans = list(tracer.spans)
    t0 = min((sp.start_ns for sp in spans), default=0)

    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "serving"},
        },
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "thread_name",
            "args": {"name": "pipeline"},
        },
    ]
    # Request spans get one track each, keyed (and sorted) by trace_id.
    request_tids: dict[str, int] = {}

    def tid_for(trace_id: str) -> int:
        if trace_id not in request_tids:
            tid = len(request_tids) + 1
            request_tids[trace_id] = tid
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": str(trace_id)},
                }
            )
        return request_tids[trace_id]

    for sp in spans:
        attrs = dict(sp.attrs)
        if sp.cat == "request":
            tid = tid_for(str(attrs.get("trace_id")))
        else:
            tid = 0
        if sp.name == "batch.lane":
            # Satellite of the multi-source work: name each lane after
            # its index and source vertex so Perfetto shows which root
            # rode which lane.
            name = f"lane {attrs.get('lane')} src {attrs.get('source')}"
        else:
            name = sp.name
        ts = (sp.start_ns - t0) / 1e3
        if sp.end_ns is not None and sp.end_ns > sp.start_ns:
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "name": name,
                    "cat": sp.cat,
                    "ts": ts,
                    "dur": (sp.end_ns - sp.start_ns) / 1e3,
                    "args": attrs,
                }
            )
        else:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": tid,
                    "name": name,
                    "cat": sp.cat,
                    "ts": ts,
                    "args": attrs,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "kind": "serving",
            "spans": len(spans),
            "requests": len(request_tids),
        },
    }


def write_serve_trace(path: str, tracer) -> None:
    """Write :func:`serve_chrome_trace` output as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serve_chrome_trace(tracer), fh)


def request_chain(spans, trace_id: str) -> dict:
    """Resolve one request's queue → batch → engine span chain.

    Walks the links the serving layer recorded: the request's
    ``serve.queue_wait`` span carries its ``batch_id``; that id names
    the ``serve.batch_assembly`` span, the engine's ``batch.run`` span,
    and the ``batch.lane`` marker whose ``trace_ids`` include this
    request; the per-round ``level`` spans are ``batch.run``'s
    children.  Cache hits short-circuit to their ``serve.cache_hit``
    marker.  Raises ``ValueError`` when any link is missing — the trace
    does not connect — which is exactly what the tracing tests assert
    never happens for a served request.
    """
    spans = list(spans)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    hits = [
        sp
        for sp in named("serve.cache_hit")
        if sp.attrs.get("trace_id") == trace_id
    ]
    waits = [
        sp
        for sp in named("serve.queue_wait")
        if sp.attrs.get("trace_id") == trace_id
    ]
    if not waits:
        if hits:
            return {
                "trace_id": trace_id,
                "cache_hit": True,
                "queue_wait": None,
                "batch_id": None,
                "spans": [hits[0].index],
            }
        raise ValueError(f"no span recorded for trace_id {trace_id!r}")
    wait = waits[0]
    batch_id = wait.attrs.get("batch_id")
    assembly = [
        sp
        for sp in named("serve.batch_assembly")
        if sp.attrs.get("batch_id") == batch_id
    ]
    runs = [
        sp
        for sp in named("batch.run")
        if sp.attrs.get("batch_id") == batch_id
    ]
    if not assembly or not runs:
        raise ValueError(
            f"trace_id {trace_id!r}: batch {batch_id!r} has no "
            f"assembly/run span"
        )
    run = runs[0]
    lanes = [
        sp
        for sp in named("batch.lane")
        if sp.attrs.get("batch_id") == batch_id
        and trace_id in (sp.attrs.get("trace_ids") or [])
    ]
    if not lanes:
        raise ValueError(
            f"trace_id {trace_id!r}: no lane in batch {batch_id!r} "
            f"carries it"
        )
    levels = [sp for sp in named("level") if sp.parent == run.index]
    if not levels:
        raise ValueError(
            f"trace_id {trace_id!r}: batch {batch_id!r} ran no levels"
        )
    return {
        "trace_id": trace_id,
        "cache_hit": False,
        "batch_id": batch_id,
        "queue_wait": wait.index,
        "assembly": assembly[0].index,
        "run": run.index,
        "lane": lanes[0].attrs.get("lane"),
        "source": lanes[0].attrs.get("source"),
        "levels": [sp.index for sp in levels],
        "spans": [
            wait.index,
            assembly[0].index,
            run.index,
            lanes[0].index,
            *(sp.index for sp in levels),
        ],
    }


def events_jsonl(telemetry: "RunTelemetry") -> str:
    """Wall-clock spans and collective events as JSON lines.

    Span lines have ``"kind": "span"``, collective lines
    ``"kind": "comm_event"`` — filter with ``jq 'select(.kind == ...)'``.
    """
    lines = [json.dumps(sp.as_dict()) for sp in telemetry.spans]
    lines.extend(json.dumps(ev.as_dict()) for ev in telemetry.comm_events)
    return "\n".join(lines) + ("\n" if lines else "")


def write_events_jsonl(path: str, telemetry: "RunTelemetry") -> None:
    """Write :func:`events_jsonl` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(events_jsonl(telemetry))


def _split_labels(formatted: str) -> tuple[str, str]:
    """``name{k=v,...}`` -> ``(name, "k=v,...")`` (labels empty if none)."""
    if formatted.endswith("}") and "{" in formatted:
        name, _, labels = formatted.partition("{")
        return name, labels[:-1]
    return formatted, ""


def summary_table(metrics: "MetricsRegistry", title: str = "telemetry") -> str:
    """A metrics registry rendered as a terminal table.

    Labels get their own column so series with different label arity
    (``bfs.runs_total`` next to ``comm.step_sim_time_ns_total{op=,step=}``)
    stay aligned, and rows are sorted by metric name / labels / type
    across all three families so the output is deterministic and related
    series are adjacent regardless of metric kind.
    """
    from repro.util.formatting import format_table

    snapshot = metrics.as_dict()
    rows: list[list] = []
    for name, value in snapshot["counters"].items():
        rows.append([*_split_labels(name), "counter", f"{value:,.0f}"])
    for name, value in snapshot["gauges"].items():
        rows.append([*_split_labels(name), "gauge", f"{value:.4g}"])
    for name, summ in snapshot["histograms"].items():
        rows.append(
            [
                *_split_labels(name),
                "histogram",
                f"n={summ['count']} mean={summ['mean']:.4g} "
                f"p50={summ['p50']:.4g} p99={summ['p99']:.4g} "
                f"min={summ['min']:.4g} max={summ['max']:.4g}",
            ]
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if not rows:
        rows.append(["(no metrics recorded)", "", "", ""])
    return format_table(
        ["metric", "labels", "type", "value"], rows, title=title
    )
