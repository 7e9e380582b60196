"""Per-layer metrics of a traced run, and the overhead probes.

Everything here is computed from the spans and boundary counts that
``spans.py`` recorded, or from extra untimed-by-the-driver probe passes
that compare one instrument on against off.  A layer a workload bypasses
reads 0 (no calls, no time): that is the measurement, not a placeholder.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from bisect import bisect_left
from dataclasses import replace

import numpy as np

import workloads as W
from repro import BFSEngine
from repro.faults.recovery import ResilienceConfig
from repro.obs import NULL_TRACER, SpanTracer
from repro.obs.hostprof import HostProfiler
from repro.serve.resilience import ResiliencePolicy
from spans import DATA, END, START, Recorder

KERNEL_SPANS = ("kernels.bu_scan", "kernels.td_expand", "kernels.lane_scan")
#: Experiments that get their own ``experiments.<id>_s``; the rest is other_s.
TIMED_FIGS = ("fig09", "fig12", "fig13", "fig14", "fig15")
SWEEP_RATES = (80.0, 120.0, 160.0, 200.0, 240.0)
SWEEP_P95_LIMIT_MS = 100.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_metrics(rec: Recorder, root_name: str, mark: int) -> dict:
    """Metrics every workload family derives the same way from its spans.

    ``mark`` is the first span of the timed region; the spans before it
    belong to set-up and only feed the two set-up metrics.
    """
    agg = rec.by_name(mark)
    whole = rec.by_name()

    def mean_s(name):
        a = whole.get(name)
        return a["total_ns"] / a["calls"] / 1e9 if a else 0.0

    def self_ms(name):
        return agg.get(name, {}).get("self_ns", 0) / 1e6

    def total_ms(name):
        return agg.get(name, {}).get("total_ns", 0) / 1e6

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    runs = [s[DATA] for s in rec.select("engine.run", mark)]
    batches = [s[DATA] for s in rec.select("multisource.run_batch", mark)]
    # One BFS = one BFSEngine.run, or one lane of a batched traversal.
    n_bfs = len(runs) + sum(b["lanes"] for b in batches)
    counted = runs + batches
    root_ms = total_ms(root_name)
    kernel_ms = sum(self_ms(k) for k in KERNEL_SPANS)
    scans = [s[DATA] for s in rec.select("kernels.bu_scan", mark)]
    examined = sum(d["examined_edges"] for d in scans)
    gathered = sum(max(d["gathered_edges"], d["examined_edges"]) for d in scans)
    raw = sum(d["raw_bytes"] for d in counted)
    rank_levels = sum(d["rank_levels"] for d in runs)
    m = {
        "graph.rmat_gen_s": mean_s("graph.rmat_graph"),
        "prepared.prepare_s": mean_s("prepared.prepare"),
        "kernels.bu_scan_ms_per_bfs": _div(self_ms("kernels.bu_scan"), n_bfs),
        "kernels.td_expand_ms_per_bfs": _div(self_ms("kernels.td_expand"), n_bfs),
        "kernels.time_frac": _div(kernel_ms, root_ms),
        "kernels.calls_per_bfs": _div(sum(calls(k) for k in KERNEL_SPANS), n_bfs),
        "kernels.examined_edges_per_bfs": _div(
            sum(d["examined_edges"] for d in counted), n_bfs
        ),
        "kernels.examined_over_gathered": _div(examined, gathered),
        "kernels.lane_scan_ms_per_batch": _div(self_ms("kernels.lane_scan"), len(batches)),
        "engine.self_ms_per_bfs": _div(self_ms("engine.run"), len(runs)),
        "engine.self_frac": _div(self_ms("engine.run"), total_ms("engine.run")),
        "engine.td_apply_ms_per_bfs": _div(self_ms("engine.td_apply"), len(runs)),
        "engine.levels_per_bfs": _div(sum(d["levels"] for d in runs), len(runs)),
        "engine.ms_per_rank_level": _div(total_ms("engine.run"), rank_levels),
        "mpi.allgather_ms_per_bfs": _div(self_ms("mpi.allgather"), n_bfs),
        "mpi.alltoallv_ms_per_bfs": _div(self_ms("mpi.alltoallv"), n_bfs),
        "mpi.collective_calls_per_bfs": _div(
            calls("mpi.allgather") + calls("mpi.alltoallv"), n_bfs
        ),
        "mpi.alltoallv_bytes_per_bfs": _div(sum(d["alltoallv_bytes"] for d in counted), n_bfs),
        "codecs.encode_ms_per_bfs": _div(self_ms("codecs.encode"), n_bfs),
        "codecs.decode_ms_per_bfs": _div(self_ms("codecs.decode"), n_bfs),
        "codecs.wire_over_raw": _div(sum(d["wire_bytes"] for d in counted), raw),
        "codecs.sim_comm_ns_per_bfs": _div(sum(d["sim_comm_ns"] for d in counted), n_bfs),
        "timing.assemble_ms_per_bfs": _div(self_ms("timing.assemble"), n_bfs),
        "timing.assemble_frac": _div(self_ms("timing.assemble"), root_ms),
        "model.predict_graph500_s": self_ms("model.predict_graph500") / 1e3,
        "model.extrapolate_ms_per_call": _div(
            total_ms("model.extrapolate"), calls("model.extrapolate")
        ),
    }
    total, covered = rec.tree_coverage(root_name)
    m["obs.span_coverage"] = _div(covered, total)
    return m


def family_metrics(spec, rec: Recorder, outcome) -> dict:
    """The metrics only one workload family has spans for."""
    if isinstance(spec, W.FigsSpec):
        return figs_metrics(rec, outcome)
    if isinstance(spec, W.ServeSpec):
        return serve_metrics(rec, outcome)
    return {}


def probes(spec, state, factor: float, outcome) -> dict:
    """Instrument on against off, on the workloads marked ``probes``."""
    if isinstance(spec, W.G500Spec) and spec.probes:
        return g500_probes(state)
    if isinstance(spec, W.ServeSpec) and spec.probes:
        return serve_probes(spec, state, factor, outcome.extras["open_qps"])
    return {}


def figs_metrics(rec: Recorder, outcome) -> dict:
    m = {"experiments.other_s": 0.0}
    for span in rec.select("experiments.run"):
        eid = span[DATA]["id"]
        seconds = (span[END] - span[START]) / 1e9
        if eid in TIMED_FIGS:
            m[f"experiments.{eid}_s"] = seconds
        else:
            m["experiments.other_s"] += seconds
    m["experiments.paper_ratio_err_mean"] = outcome.extras.get("paper_ratio_err_mean", 0.0)
    return m


def _in_windows(spans, windows):
    return [s for s in spans if any(lo <= s[START] <= hi for lo, hi in windows)]


def serve_metrics(rec: Recorder, outcome) -> dict:
    phases = outcome.live["phases"]
    load = [phases["B"], phases["C"]]
    ms_spans = rec.select("multisource.run_batch")
    loaded = [s for p in load for s in _in_windows(ms_spans, p.windows_ns)]
    dur_ms = [(s[END] - s[START]) / 1e6 for s in loaded]
    lanes = sum(s[DATA]["lanes"] for s in loaded)
    m = {
        "multisource.run_batch_ms_p50": statistics.median(dur_ms) if dur_ms else 0.0,
        "multisource.ms_per_query": _div(sum(dur_ms), lanes),
        "multisource.rounds_per_batch": _div(
            sum(s[DATA]["rounds"] for s in loaded), len(loaded)
        ),
    }
    if "A" in phases:
        seq = _in_windows(ms_spans, phases["A"].windows_ns)
        m["multisource.k1_ms_per_query"] = _div(
            sum(s[END] - s[START] for s in seq) / 1e6, len(seq)
        )
        m["multisource.batch_speedup"] = _div(phases["B"].qps, phases["A"].qps)

    # Queue wait: from a query's submit to the start of the batch that ran it.
    batch_spans = [
        s for p in load for s in _in_windows(rec.select("session.run_batch"), p.windows_ns)
    ]
    starts_by_source: dict[int, list[int]] = {}
    for s in batch_spans:
        for source in s[DATA]["sources"]:
            starts_by_source.setdefault(source, []).append(s[START])
    # Under paced load only: in a burst the wait is the burst's own length.
    waits, hits = [], []
    for s in _in_windows(rec.select("scheduler.submit"), phases["C"].windows_ns):
        if s[DATA] is None:  # the submit raised: counted as a failure elsewhere
            continue
        starts = starts_by_source.get(s[DATA]["source"], [])
        k = bisect_left(starts, s[START])
        if k < len(starts) and starts[k] <= s[END]:
            waits.append((starts[k] - s[START]) / 1e6)
        else:  # answered without a batch: the result-cache hit path
            hits.append((s[END] - s[START]) / 1e3)
    stats = {k: sum(p.stats[k] for p in load) for k in
             ("queries", "batches", "batched_queries", "coalesced")}
    wall = sum(p.wall_s for p in load)
    c = phases["C"]
    m.update({
        "scheduler.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "scheduler.overhead_ms_per_query": _div(
            wall * 1e3 - sum((s[END] - s[START]) / 1e6 for s in batch_spans),
            stats["queries"],
        ),
        "scheduler.mean_batch_size": _div(stats["batched_queries"], stats["batches"]),
        "scheduler.batches": float(stats["batches"]),
        "scheduler.coalesced": float(stats["coalesced"]),
        # Phase C only: a burst is submitted whole before anything is cached.
        "scheduler.cache_hit_frac": _div(c.stats["cache_hits"], c.stats["queries"]),
        "scheduler.hit_path_us_p50": statistics.median(hits) if hits else 0.0,
        "scheduler.p99_ms": W.percentile(c.lat_ms, 99),
        "scheduler.generator_late_ms_p99": W.percentile(c.late_ms, 99),
    })
    return m


# ---------------------------------------------------------------------------
# probes: one instrument on against off, same inputs, tracing of this harness off
# ---------------------------------------------------------------------------


def _bfs_ms(engine, roots) -> tuple[np.ndarray, list]:
    lat = np.empty(len(roots))
    results = []
    for i, root in enumerate(roots):
        t0 = time.perf_counter_ns()
        results.append(engine.run(int(root)))
        lat[i] = (time.perf_counter_ns() - t0) / 1e6
    return lat, results


def g500_probes(state: W.G500State) -> dict:
    """hostprof and checkpoint overhead on BFSEngine.run (64 traversals each)."""
    g, cl, cfg, prep = state.graph, state.cluster, state.config, state.prepared
    roots = W._rng(state.seed, 5).choice(state.reached, size=64, replace=False)
    plain, _ = _bfs_ms(state.engine, roots)
    hp = HostProfiler(trace_memory=False, profile_calls=False)
    with hp:
        profiled, _ = _bfs_ms(BFSEngine(g, cl, cfg, prepared=prep, hostprof=hp), roots)
    phase_self_ms = sum(p.self_ns for p in hp.report().phases) / 1e6
    guarded, results = _bfs_ms(
        BFSEngine(g, cl, cfg, prepared=prep, resilience=ResilienceConfig()), roots
    )
    base = float(np.median(plain))
    return {
        "obs.hostprof_overhead_frac": float(np.median(profiled)) / base - 1.0,
        "obs.hostprof_coverage": phase_self_ms / float(profiled.sum()),
        "faults.checkpoint_overhead_frac": float(np.median(guarded)) / base - 1.0,
        "faults.checkpoint_bytes_per_bfs": float(
            np.mean([r.recovery.checkpoint_bytes for r in results])
        ),
    }


def serve_probes(
    spec: W.ServeSpec, state: W.ServeState, factor: float, open_qps: float
) -> dict:
    """Tracer and resilience overhead (at phase C's rate), and the highest
    sustainable rate."""
    n_burst = spec.burst // W.ROUNDS  # one round's worth, as in the timed region
    n_open = spec.open_n // W.ROUNDS
    n_sweep = max(1, round(spec.sweep_n * factor))
    sizes = [n_burst, n_burst, n_open, n_open] + [n_sweep] * len(SWEEP_RATES)
    roots = replace(spec, pool=None).roots(state, 4, sizes)

    async def phase(name, phase_roots, qps, deadline_ms=None, **kwargs):
        scheduler = spec.scheduler(state, **kwargs)
        return await W.drive(scheduler, name, phase_roots, qps, deadline_ms=deadline_ms)

    async def probes():
        out = {}
        off = await phase("tracer-off", roots[0], float("inf"), tracer=NULL_TRACER)
        on = await phase("tracer-on", roots[1], float("inf"), tracer=SpanTracer())
        out["obs.tracer_overhead_frac"] = off.qps / on.qps - 1.0
        none = await phase("resilience-none", roots[2], open_qps)
        policy = await phase(
            "resilience-default", roots[3], open_qps,
            deadline_ms=1000.0, resilience=ResiliencePolicy(),
        )
        out["scheduler.resilience_overhead_frac"] = (
            float(np.median(policy.lat_ms)) / float(np.median(none.lat_ms)) - 1.0
        )
        best = 0.0
        for rate, sweep_roots in zip(SWEEP_RATES, roots[4:]):
            p = await phase(f"sweep-{rate:g}", sweep_roots, rate)
            if (
                p.succeeded == p.sent
                and W.percentile(p.lat_ms, 95) <= SWEEP_P95_LIMIT_MS
                and p.growth <= W.MAX_BACKLOG_GROWTH
            ):
                best = max(best, rate)
        out["scheduler.max_ok_rate_qps"] = best
        return out

    return asyncio.run(probes())
