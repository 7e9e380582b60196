"""SLO objectives and multiwindow burn-rate evaluation."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SCHEMA,
    VERDICT_SEVERITY,
    SLOMonitor,
    SLOObjective,
    SLOSpec,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def monitor_with(spec: SLOSpec):
    clock = FakeClock()
    registry = MetricsRegistry()
    mon = SLOMonitor(registry, spec, clock=clock)
    return mon, registry, clock


ERRORS_ONLY = SLOSpec(
    name="errors",
    objectives=(SLOObjective(kind="error_rate", max_rate=0.01),),
    fast_window_s=5.0,
    slow_window_s=30.0,
)


class TestObjective:
    def test_latency_label_and_budget(self):
        obj = SLOObjective(kind="latency", threshold_ms=50.0, quantile=99.0)
        assert obj.label == "p99_le_50ms"
        assert obj.budget == pytest.approx(0.01)

    def test_error_rate_label_and_budget(self):
        obj = SLOObjective(kind="error_rate", max_rate=0.001)
        assert obj.label == "errors_le_0_1pct"
        assert obj.budget == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOObjective(kind="availability")
        with pytest.raises(ValueError):
            SLOObjective(kind="latency", threshold_ms=0.0)
        with pytest.raises(ValueError):
            SLOObjective(kind="latency", threshold_ms=5.0, quantile=100.0)
        with pytest.raises(ValueError):
            SLOObjective(kind="error_rate", max_rate=1.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(objectives=())
        with pytest.raises(ValueError):
            SLOSpec(fast_window_s=10.0, slow_window_s=5.0)


class TestVerdicts:
    def test_no_samples_is_insufficient(self):
        mon, _reg, _clock = monitor_with(ERRORS_ONLY)
        report = mon.evaluate()
        assert report["verdict"] == "insufficient"

    def test_no_traffic_is_insufficient_not_ok(self):
        mon, _reg, clock = monitor_with(ERRORS_ONLY)
        for t in (0.0, 10.0, 40.0):
            clock.t = t
            mon.sample()
        report = mon.evaluate()
        assert report["verdict"] == "insufficient"
        (obj,) = report["objectives"]
        assert obj["windows"]["fast"]["burn_rate"] is None

    def test_clean_traffic_is_ok(self):
        mon, reg, clock = monitor_with(ERRORS_ONLY)
        requests = reg.counter("serve.requests_total")
        mon.sample()
        for t in (10.0, 20.0, 40.0):
            clock.t = t
            requests.inc(100)
            mon.sample()
        report = mon.evaluate()
        assert report["verdict"] == "ok"
        assert report["totals"]["requests"] == 300.0
        assert report["totals"]["errors"] == 0.0

    def test_sustained_errors_breach(self):
        mon, reg, clock = monitor_with(ERRORS_ONLY)
        requests = reg.counter("serve.requests_total")
        errors = reg.counter("serve.errors_total")
        mon.sample()
        # Half of all traffic errors for a full slow window: burn 50
        # in both windows, way past 14.4 and 6.
        for t in (10.0, 20.0, 30.0, 40.0):
            clock.t = t
            requests.inc(100)
            errors.inc(50)
            mon.sample()
        report = mon.evaluate()
        assert report["verdict"] == "breach"
        (obj,) = report["objectives"]
        assert obj["windows"]["fast"]["burning"]
        assert obj["windows"]["slow"]["burning"]
        assert obj["windows"]["slow"]["burn_rate"] == pytest.approx(50.0)

    def test_recent_spike_is_fast_burn_only(self):
        mon, reg, clock = monitor_with(ERRORS_ONLY)
        requests = reg.counter("serve.requests_total")
        errors = reg.counter("serve.errors_total")
        mon.sample()
        # 25s of clean traffic dilutes the slow window...
        for t in (5.0, 10.0, 15.0, 20.0, 25.0):
            clock.t = t
            requests.inc(190)
            mon.sample()
        # ...then a hot last fast-window: 20% of its requests error.
        clock.t = 30.0
        requests.inc(50)
        errors.inc(10)
        mon.sample()
        report = mon.evaluate()
        (obj,) = report["objectives"]
        # fast: 10/50 = 0.2 -> burn 20 >= 14.4; slow: 10/1000 = 0.01
        # -> burn 1 < 6.
        assert obj["windows"]["fast"]["burning"]
        assert not obj["windows"]["slow"]["burning"]
        assert report["verdict"] == "fast_burn"

    def test_latency_objective_counts_slow_requests(self):
        spec = SLOSpec(
            name="latency",
            objectives=(
                SLOObjective(kind="latency", threshold_ms=50.0, quantile=90.0),
            ),
            fast_window_s=5.0,
            slow_window_s=30.0,
        )
        mon, reg, clock = monitor_with(spec)
        hist = reg.histogram("serve.latency_ms")
        mon.sample()
        # Budget is 10%; half the requests take 1s. Burn = 0.5/0.1 = 5
        # in both windows -> neither window passes its limit alone
        # (fast 14.4) but slow (6) is close; push to 80% slow.
        for t in (10.0, 20.0, 30.0, 40.0):
            clock.t = t
            for _ in range(2):
                hist.observe(1.0)  # well under 50 ms
            for _ in range(8):
                hist.observe(1000.0)  # well over
            mon.sample()
        report = mon.evaluate()
        (obj,) = report["objectives"]
        # 80% bad / 10% budget = burn 8: slow burns, fast (limit 14.4)
        # does not.
        assert obj["windows"]["slow"]["burning"]
        assert not obj["windows"]["fast"]["burning"]
        assert report["verdict"] == "slow_burn"

    def test_overall_verdict_is_worst_objective(self):
        spec = SLOSpec(
            name="both",
            objectives=(
                SLOObjective(kind="latency", threshold_ms=50.0, quantile=99.0),
                SLOObjective(kind="error_rate", max_rate=0.01),
            ),
            fast_window_s=5.0,
            slow_window_s=30.0,
        )
        mon, reg, clock = monitor_with(spec)
        requests = reg.counter("serve.requests_total")
        errors = reg.counter("serve.errors_total")
        hist = reg.histogram("serve.latency_ms")
        mon.sample()
        for t in (10.0, 20.0, 30.0, 40.0):
            clock.t = t
            requests.inc(100)
            errors.inc(50)  # error objective: breach
            for _ in range(100):
                hist.observe(1.0)  # latency objective: ok
            mon.sample()
        report = mon.evaluate()
        verdicts = {o["label"]: o["verdict"] for o in report["objectives"]}
        assert verdicts["p99_le_50ms"] == "ok"
        assert verdicts["errors_le_1pct"] == "breach"
        assert report["verdict"] == "breach"

    def test_severity_ordering(self):
        order = ["ok", "insufficient", "slow_burn", "fast_burn", "breach"]
        assert sorted(order, key=VERDICT_SEVERITY.__getitem__) == order


class TestReportShape:
    def test_schema_and_sections(self):
        mon, reg, clock = monitor_with(ERRORS_ONLY)
        reg.counter("serve.requests_total").inc(5)
        mon.sample()
        clock.t = 40.0
        reg.counter("serve.requests_total").inc(5)
        mon.sample()
        report = mon.evaluate()
        assert report["schema"] == SCHEMA
        assert report["slo"] == "errors"
        assert report["samples"] == 2
        assert report["elapsed_s"] == pytest.approx(40.0)
        assert report["spec"]["fast_window_s"] == 5.0

    def test_default_interval_spans_fast_window(self):
        mon, _reg, _clock = monitor_with(ERRORS_ONLY)
        assert mon.interval == pytest.approx(1.0)

