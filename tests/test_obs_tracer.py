"""Tests for the span tracer: nesting, attributes, null no-op path."""

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine
from repro.graph import rmat_graph
from repro.machine import paper_cluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    CommEvent,
    NullTracer,
    RunTelemetry,
    Span,
    SpanTracer,
)


class TestSpanNesting:
    def test_parent_and_depth(self):
        tr = SpanTracer()
        with tr.span("outer"):
            with tr.span("middle"):
                with tr.span("inner"):
                    pass
            with tr.span("sibling"):
                pass
        names = {s.name: s for s in tr.spans}
        assert names["outer"].parent == -1
        assert names["outer"].depth == 0
        assert names["middle"].parent == names["outer"].index
        assert names["inner"].parent == names["middle"].index
        assert names["inner"].depth == 2
        assert names["sibling"].parent == names["outer"].index

    def test_spans_closed_in_order(self):
        tr = SpanTracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert all(s.end_ns is not None for s in tr.spans)
        a, b = tr.spans
        assert a.start_ns <= b.start_ns <= b.end_ns <= a.end_ns

    def test_exception_unwinding_closes_spans(self):
        tr = SpanTracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        assert all(s.end_ns is not None for s in tr.spans)
        assert tr.current_span is None

    def test_duration_uses_clock(self):
        ticks = iter(range(0, 100, 10))
        tr = SpanTracer(clock=lambda: next(ticks))
        with tr.span("a"):
            pass
        assert tr.spans[0].start_ns == 0
        assert tr.spans[0].duration_ns == 10


class TestSpanAttributes:
    def test_kwargs_and_set(self):
        tr = SpanTracer()
        with tr.span("phase", cat="level", level=3) as sp:
            sp.set(examined=42, direction="top_down")
        s = tr.spans[0]
        assert s.cat == "level"
        assert s.attrs == {"level": 3, "examined": 42, "direction": "top_down"}

    def test_instant_marker(self):
        tr = SpanTracer()
        with tr.span("outer"):
            tr.instant("decide", cat="policy", direction="bottom_up")
        marker = [s for s in tr.spans if s.name == "decide"][0]
        assert marker.duration_ns == 0
        assert marker.parent == tr.spans[0].index
        assert marker.attrs["direction"] == "bottom_up"

    def test_as_dict_shape(self):
        tr = SpanTracer()
        with tr.span("x", cat="c", k=1):
            pass
        d = tr.spans[0].as_dict()
        assert d["kind"] == "span"
        assert d["name"] == "x"
        assert d["attrs"] == {"k": 1}
        assert d["duration_ns"] >= 0


class TestCommEvents:
    def test_records_event_with_breakdown(self):
        tr = SpanTracer()
        with tr.span("phase.bu_allgather"):
            tr.comm_event(
                "allgather",
                nbytes=1024.0,
                rank_times=np.array([1.0, 3.0]),
                breakdown={"inter": 3.0},
                algorithm="leader",
                part_bytes=512.0,
            )
        ev = tr.events[0]
        assert ev.op == "allgather"
        assert ev.max_time_ns == 3.0
        assert ev.span == "phase.bu_allgather"
        assert ev.algorithm == "leader"
        assert ev.attrs["part_bytes"] == 512.0
        assert ev.as_dict()["kind"] == "comm_event"

    def test_metrics_updated(self):
        reg = MetricsRegistry()
        tr = SpanTracer(metrics=reg)
        tr.comm_event(
            "alltoallv",
            nbytes=100.0,
            rank_times=[5.0],
            breakdown={"alltoallv": 5.0},
            intra_bytes=60.0,
            inter_bytes=30.0,
            self_bytes=10.0,
        )
        snap = reg.as_dict()["counters"]
        assert snap["comm.calls_total{op=alltoallv}"] == 1
        assert snap["comm.bytes_total{op=alltoallv}"] == 100.0
        assert snap["comm.channel_bytes_total{channel=intra}"] == 60.0
        assert snap["comm.channel_bytes_total{channel=inter}"] == 30.0


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        sp1 = NULL_TRACER.span("anything", cat="x", attr=1)
        sp2 = NULL_TRACER.span("other")
        assert sp1 is sp2  # one shared no-op span, no allocation per call
        with sp1 as s:
            s.set(ignored=True)
        NULL_TRACER.instant("marker")
        NULL_TRACER.comm_event("allgather", nbytes=1.0)
        assert isinstance(NULL_TRACER, NullTracer)

    def test_engine_default_has_no_telemetry(self):
        g = rmat_graph(scale=11, seed=6)
        engine = BFSEngine(g, paper_cluster(nodes=1), BFSConfig.original_ppn8())
        result = engine.run(0)
        assert result.telemetry is None
        assert engine.tracer is NULL_TRACER
        assert engine.comm.tracer is NULL_TRACER

    def test_traced_run_matches_untraced(self):
        """Telemetry must not perturb the functional result."""
        g = rmat_graph(scale=11, seed=6)
        cluster = paper_cluster(nodes=2)
        cfg = BFSConfig.original_ppn8()
        root = int(np.argmax(g.degrees()))
        plain = BFSEngine(g, cluster, cfg).run(root)
        traced = BFSEngine(
            g, cluster, cfg, tracer=SpanTracer(), metrics=MetricsRegistry()
        ).run(root)
        assert np.array_equal(plain.parent, traced.parent)
        assert plain.seconds == pytest.approx(traced.seconds)
        assert traced.telemetry is not None


class TestEngineTelemetry:
    @pytest.fixture(scope="class")
    def traced(self):
        g = rmat_graph(scale=11, seed=6)
        reg = MetricsRegistry()
        tr = SpanTracer(metrics=reg)
        engine = BFSEngine(
            g,
            paper_cluster(nodes=2),
            BFSConfig.granularity_variant(256),
            tracer=tr,
            metrics=reg,
        )
        return engine.run(int(np.argmax(g.degrees())))

    def test_one_level_span_per_level(self, traced):
        levels = [s for s in traced.telemetry.spans if s.name == "level"]
        assert len(levels) == traced.levels
        assert [s.attrs["level"] for s in levels] == list(range(traced.levels))

    def test_phase_spans_nested_under_levels(self, traced):
        spans = traced.telemetry.spans
        by_index = {s.index: s for s in spans}
        phases = [s for s in spans if s.name.startswith("phase.")]
        assert phases, "no phase spans recorded"
        for p in phases:
            assert by_index[p.parent].name == "level"

    def test_per_rank_kernel_spans(self, traced):
        spans = traced.telemetry.spans
        levels = traced.counts.levels
        # Both level kinds are rank-global: one span per stage and level,
        # carrying the per-rank arrays.  Bottom-up: one scan per level.
        bu_counts = [lc for lc in levels if lc.direction == "bottom_up"]
        scans = [s for s in spans if s.name == "phase.bu_scan"]
        assert bu_counts and len(scans) == len(bu_counts)
        assert not [s for s in spans if s.name == "bu.scan"]
        for lc, sc in zip(bu_counts, scans):
            assert sc.attrs["candidates"] == lc.candidates.tolist()
            assert sc.attrs["examined_edges"] == lc.examined_edges.tolist()
            assert sc.attrs["inqueue_reads"] == lc.inqueue_reads.tolist()
        # Top-down: one kernel span per level (the apply runs inside the
        # kernel), one row per lane (a run is one lane).
        td_counts = [lc for lc in levels if lc.direction == "top_down"]
        expands = [s for s in spans if s.name == "phase.td_expand"]
        assert td_counts and len(expands) == len(td_counts)
        assert not [s for s in spans if s.name == "phase.td_apply"]
        for lc, ex in zip(td_counts, expands):
            assert ex.attrs["frontier"] == [lc.frontier_local.tolist()]
            assert ex.attrs["examined_edges"] == [lc.examined_edges.tolist()]
            assert ex.attrs["discovered"] == [lc.discovered.tolist()]
            assert ex.attrs["received_pairs"] == [
                (lc.td_send_bytes.sum(axis=0) // 16).tolist()
            ]

    def test_direction_markers(self, traced):
        markers = [
            s for s in traced.telemetry.spans if s.name == "direction.decide"
        ]
        assert len(markers) == traced.levels
        directions = [m.attrs["direction"] for m in markers]
        assert directions == [lc.direction for lc in traced.counts.levels]

    def test_comm_events_per_collective(self, traced):
        events = traced.telemetry.comm_events
        allgathers = [e for e in events if e.op == "allgather"]
        alltoallvs = [e for e in events if e.op == "alltoallv"]
        bu_levels = sum(
            1 for lc in traced.counts.levels if lc.direction == "bottom_up"
        )
        td_levels = traced.levels - bu_levels
        assert len(allgathers) == bu_levels
        assert len(alltoallvs) == td_levels
        for e in events:
            assert len(e.rank_times) == traced.counts.num_ranks
            assert e.breakdown

    def test_metrics_recorded(self, traced):
        snap = traced.telemetry.metrics.as_dict()
        assert snap["counters"]["bfs.runs_total"] == 1
        phase_keys = [
            k for k in snap["counters"] if k.startswith("bfs.phase_sim_ns_total")
        ]
        assert len(phase_keys) == 6
        assert snap["histograms"]["bfs.level_stall_ns"]["count"] > 0

    def test_run_telemetry_from_tracer(self):
        tr = SpanTracer()
        with tr.span("a"):
            tr.comm_event("barrier")
        tel = RunTelemetry.from_tracer(tr)
        assert tel.spans is tr.spans
        assert tel.comm_events is tr.events
        assert isinstance(tel.spans[0], Span)
        assert isinstance(tel.comm_events[0], CommEvent)
