"""Tests for the critical-path analyzer and the model-drift detector."""

import json
import math

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine
from repro.core.counts import Direction
from repro.core.timing import COMM_COMPONENTS, comm_component_split
from repro.graph import rmat_graph
from repro.machine import paper_cluster
from repro.obs.analyze import (
    DriftComponent,
    ModelDriftReport,
    RunAttribution,
    attribute_run,
    detect_model_drift,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer


@pytest.fixture(scope="module")
def traced():
    """(engine, result) of one traced hybrid run on a 2-node cluster."""
    g = rmat_graph(scale=11, seed=6)
    tr = SpanTracer()
    engine = BFSEngine(
        g,
        paper_cluster(nodes=2),
        BFSConfig.granularity_variant(256),
        tracer=tr,
        metrics=MetricsRegistry(),
    )
    result = engine.run(int(np.argmax(g.degrees())))
    return engine, result


class TestCommComponentSplit:
    def test_partitions_without_loss(self):
        steps = {
            "inq_intra_gather": 10.0,
            "inq_inter": 20.0,
            "summary_inter": 5.0,
            "alltoallv": 7.0,
            "allreduce": 3.0,
        }
        split = comm_component_split(steps)
        assert split["allgather_in_queue"] == 30.0
        assert split["allgather_summary"] == 5.0
        assert split["alltoallv"] == 7.0
        assert split["allreduce"] == 3.0
        assert sum(split.values()) == pytest.approx(sum(steps.values()))

    def test_unknown_steps_go_to_other(self):
        split = comm_component_split({"mystery_step": 4.0})
        assert split["other"] == 4.0
        assert sum(split.values()) == 4.0

    def test_empty(self):
        split = comm_component_split({})
        assert set(split) == set(COMM_COMPONENTS)
        assert all(v == 0.0 for v in split.values())


class TestAttribution:
    def test_attached_to_telemetry(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        assert isinstance(attr, RunAttribution)
        assert len(attr.levels) == result.levels

    def test_level_totals_match_timing_exactly(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        for la, lt in zip(attr.levels, result.timing.levels):
            assert la.total_ns == pytest.approx(lt.total_ns, rel=1e-12)
            assert la.comm_total_ns == pytest.approx(lt.comm_ns, rel=1e-12)

    def test_run_split_matches_breakdown_within_1pct(self, traced):
        """Acceptance: the attribution reproduces the compute/comm split
        already recorded in PhaseBreakdown within 1 %."""
        _, result = traced
        attr = result.telemetry.attribution
        bd = result.timing.breakdown
        assert attr.compute_ns[Direction.TOP_DOWN] == pytest.approx(
            bd.td_compute, rel=0.01
        )
        assert attr.compute_ns[Direction.BOTTOM_UP] == pytest.approx(
            bd.bu_compute, rel=0.01
        )
        assert attr.comm_total_ns == pytest.approx(
            bd.td_comm + bd.bu_comm, rel=0.01
        )
        assert attr.switch_ns == pytest.approx(bd.switch, rel=0.01)
        assert attr.stall_ns == pytest.approx(bd.stall, abs=1e-6)
        assert attr.total_ns == pytest.approx(bd.total, rel=0.01)

    def test_per_direction_comm_matches_breakdown(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        bd = result.timing.breakdown
        td_comm = sum(
            lv.comm_total_ns
            for lv in attr.levels
            if lv.direction == Direction.TOP_DOWN
        )
        bu_comm = sum(
            lv.comm_total_ns
            for lv in attr.levels
            if lv.direction == Direction.BOTTOM_UP
        )
        assert td_comm == pytest.approx(bd.td_comm, rel=0.01)
        assert bu_comm == pytest.approx(bd.bu_comm, rel=0.01)

    def test_critical_rank_is_argmax(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        for la, lt in zip(attr.levels, result.timing.levels):
            if lt.compute_rank_ns is not None and len(lt.compute_rank_ns):
                assert la.critical_rank == int(
                    np.argmax(lt.compute_rank_ns)
                )

    def test_imbalance_is_max_over_mean(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        for la, lt in zip(attr.levels, result.timing.levels):
            comp = lt.compute_rank_ns
            if comp is not None and len(comp) and float(np.mean(comp)) > 0:
                expect = float(np.max(comp)) / float(np.mean(comp))
                assert la.imbalance == pytest.approx(expect)
                assert la.imbalance >= 1.0

    def test_top_stragglers_sorted(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        top = attr.top_stragglers(3)
        stalls = [lv.stall_ns for lv in top]
        assert stalls == sorted(stalls, reverse=True)
        assert stalls[0] == max(lv.stall_ns for lv in attr.levels)

    def test_comm_fraction_in_unit_interval(self, traced):
        _, result = traced
        attr = result.telemetry.attribution
        assert 0.0 <= attr.comm_fraction <= 1.0

    def test_as_dict_is_json_ready(self, traced):
        _, result = traced
        doc = result.telemetry.attribution.as_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["schema"] == "repro.attribution/v1"
        assert len(parsed["levels"]) == result.levels
        assert set(parsed["comm_ns"]) >= set(COMM_COMPONENTS)

    def test_to_text_renders(self, traced):
        _, result = traced
        text = result.telemetry.attribution.to_text()
        assert "run attribution" in text
        assert "per-level attribution" in text
        assert "straggler" in text

    def test_engine_records_component_metrics(self, traced):
        engine, result = traced
        snap = engine.metrics.as_dict()["counters"]
        total = sum(
            v
            for k, v in snap.items()
            if k.startswith("bfs.comm.component_sim_ns_total")
        )
        comm_ns = result.timing.breakdown.td_comm + result.timing.breakdown.bu_comm
        assert total == pytest.approx(comm_ns, rel=0.01)

    def test_untraced_run_has_no_telemetry(self):
        g = rmat_graph(scale=11, seed=6)
        engine = BFSEngine(
            g, paper_cluster(nodes=2), BFSConfig.granularity_variant(256)
        )
        result = engine.run(int(np.argmax(g.degrees())))
        assert result.telemetry is None
        # but attribution can still be computed on demand
        attr = attribute_run(result)
        assert attr.total_ns == pytest.approx(
            result.timing.breakdown.total, rel=0.01
        )


class TestDriftComponent:
    def test_rel_error_signed(self):
        c = DriftComponent("pricing", "x", predicted=110.0, actual=100.0)
        assert c.rel_error == pytest.approx(0.10)
        c = DriftComponent("pricing", "x", predicted=90.0, actual=100.0)
        assert c.rel_error == pytest.approx(-0.10)

    def test_zero_actual(self):
        assert DriftComponent("t", "x", 0.0, 0.0).rel_error == 0.0
        assert DriftComponent("t", "x", 5.0, 0.0).rel_error == math.inf


class TestModelDrift:
    def test_pricing_and_trace_are_exact(self, traced):
        engine, result = traced
        report = detect_model_drift(
            result, engine, threshold=0.01, sources=("pricing", "trace")
        )
        assert report.components
        assert report.ok, [c.as_dict() for c in report.flagged]
        for c in report.components:
            assert abs(c.rel_error) <= 1e-9

    def test_flagging_threshold(self, traced):
        engine, result = traced
        # an impossible threshold flags nothing...
        loose = detect_model_drift(
            result, engine, threshold=math.inf, sources=("analytic",)
        )
        assert loose.ok
        # ...while the analytic approximation at this tiny scale cannot
        # match the functional run to 0.01 % on every component.
        tight = detect_model_drift(
            result, engine, threshold=1e-4, sources=("analytic",)
        )
        assert not tight.ok
        assert all(c.source == "analytic" for c in tight.flagged)

    def test_unknown_source_raises(self, traced):
        engine, result = traced
        with pytest.raises(ValueError):
            detect_model_drift(result, engine, sources=("psychic",))

    def test_metrics_recording(self, traced):
        engine, result = traced
        reg = MetricsRegistry()
        detect_model_drift(
            result,
            engine,
            threshold=1e-4,
            sources=("pricing", "analytic"),
            metrics=reg,
        )
        snap = reg.as_dict()
        assert any(
            k.startswith("model.drift_components_total")
            for k in snap["counters"]
        )
        assert any(
            k.startswith("model.drift_flagged_total")
            for k in snap["counters"]
        )
        assert any(
            k.startswith("model.drift_rel_error") for k in snap["histograms"]
        )

    def test_report_as_dict_and_text(self, traced):
        engine, result = traced
        report = detect_model_drift(result, engine, threshold=0.25)
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["schema"] == "repro.drift/v1"
        assert doc["threshold"] == 0.25
        assert len(doc["components"]) == len(report.components)
        text = report.to_text()
        assert "model drift" in text
        assert "pricing" in text

    def test_synthetic_cost_model_drift_is_caught(self, traced):
        """Scaling the recorded timeline simulates a cost model that
        changed under a stored result — pricing drift must flag it."""
        import copy

        engine, result = traced
        mutated = copy.copy(result)
        mutated.timing = copy.deepcopy(result.timing)
        mutated.timing.breakdown.bu_comm *= 1.5
        report = detect_model_drift(
            mutated, engine, threshold=0.01, sources=("pricing",)
        )
        assert not report.ok
        assert any(
            c.component == "breakdown.bu_comm" for c in report.flagged
        )

    def test_report_by_source(self, traced):
        engine, result = traced
        report = detect_model_drift(result, engine, threshold=0.25)
        sources = {c.source for c in report.components}
        assert sources == {"pricing", "trace", "analytic"}
        for s in sources:
            assert all(c.source == s for c in report.by_source(s))

    def test_empty_report_is_ok(self):
        assert ModelDriftReport(threshold=0.1).ok
