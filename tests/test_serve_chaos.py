"""Serve-chaos: fault plans, the injector, the campaign, and its CLI."""

import json

import pytest

from repro.errors import ConfigError, FaultError
from repro.faults.chaoscli import main as chaos_main
from repro.faults.plan import SERVE_FAULT_KINDS, FaultPlan, ServeFault
from repro.faults.servechaos import (
    available_serve_scenarios,
    run_serve_campaign,
    serve_plan,
)
from repro.faults.serveinject import ServeFaultInjector


class TestServeFaultSpec:
    def test_kinds_catalogue(self):
        assert set(SERVE_FAULT_KINDS) == {
            "session-error", "straggler", "dispatcher-kill", "cache-poison"
        }

    def test_fires_at_window(self):
        fault = ServeFault(kind="session-error", at_batch=2, count=3)
        assert [fault.fires_at(i) for i in range(6)] == [
            False, False, True, True, True, False
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense"},
            {"kind": "session-error", "at_batch": -1},
            {"kind": "session-error", "count": 0},
            {"kind": "session-error", "delay_s": -1.0},
            {"kind": "straggler"},  # needs delay_s > 0
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServeFault(**kwargs)

    def test_plan_carries_serve_faults(self):
        plan = FaultPlan(serve=(ServeFault(kind="cache-poison"),))
        assert not plan.empty
        doc = plan.as_dict()
        assert doc["serve"][0]["kind"] == "cache-poison"


class _Result:
    def __init__(self, root):
        self.root = root


class TestServeFaultInjector:
    def _injector(self, *faults, armed=True):
        return ServeFaultInjector(
            FaultPlan(serve=tuple(faults)), sleep=lambda s: None, armed=armed
        )

    def test_noop_until_armed(self):
        injector = self._injector(
            ServeFault(kind="session-error"), armed=False
        )
        injector.session_tick(1)  # would raise if live
        assert injector.events == []
        injector.arm()
        with pytest.raises(FaultError):
            injector.session_tick(1)
        assert injector.events[0].kind == "serve-session-error"

    def test_arm_resets_counters(self):
        injector = self._injector(
            ServeFault(kind="dispatcher-kill", at_batch=0), armed=True
        )
        with pytest.raises(FaultError):
            injector.dispatcher_tick()
        injector.dispatcher_tick()  # batch 1: no fault
        injector.arm()  # counters rewind: batch 0 again
        with pytest.raises(FaultError):
            injector.dispatcher_tick()

    def test_straggler_sleeps_deterministically(self):
        slept = []
        injector = ServeFaultInjector(
            FaultPlan(
                serve=(
                    ServeFault(kind="straggler", at_batch=1, delay_s=0.5),
                )
            ),
            sleep=slept.append,
            armed=True,
        )
        for _ in range(3):
            injector.session_tick(4)
        assert slept == [0.5]
        assert injector.events[0].detail["delay_s"] == 0.5

    def test_poison_replaces_root_on_cached_copy_only(self):
        import dataclasses

        @dataclasses.dataclass
        class R:
            root: int

        injector = self._injector(ServeFault(kind="cache-poison"))
        original = R(root=7)
        poisoned = injector.maybe_poison(original)
        assert poisoned.root == 8
        assert original.root == 7  # the waiters' copy is untouched
        # Subsequent batches pass through unpoisoned (count=1).
        assert injector.maybe_poison(R(root=3)).root == 3

    def test_poison_leaves_rootless_results_alone(self):
        injector = self._injector(ServeFault(kind="cache-poison"))
        obj = object()
        assert injector.maybe_poison(obj) is obj

    def test_events_as_dicts(self):
        injector = self._injector(ServeFault(kind="dispatcher-kill"))
        with pytest.raises(FaultError):
            injector.dispatcher_tick()
        (event,) = injector.events_as_dicts()
        assert event["kind"] == "serve-dispatcher-kill"
        assert event["detail"]["scope"] == "serve"

    def test_wrapped_session_fresh_is_clean(self):
        class Inner:
            digest = "d"
            config = "c"

            def fresh(self):
                return Inner()

            def run_batch(self, sources, validate=False, trace_ids=None,
                          batch_id=None, cancel=None):
                return [_Result(int(s)) for s in sources]

        injector = self._injector(ServeFault(kind="session-error"))
        wrapped = injector.wrap_session(Inner())
        fresh = wrapped.fresh()
        assert isinstance(fresh, Inner)  # unwrapped: retries dodge faults
        with pytest.raises(FaultError):
            wrapped.run_batch([1, 2])


class TestServePlans:
    def test_catalogue(self):
        names = available_serve_scenarios()
        assert "mixed" in names and "dispatcher-kill" in names

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            serve_plan("definitely-not-a-scenario")

    def test_seed_determinism(self):
        assert serve_plan("mixed", seed=3) == serve_plan("mixed", seed=3)

    def test_every_plan_has_serve_faults(self):
        for name in available_serve_scenarios():
            plan = serve_plan(name, seed=1)
            assert plan.serve, name


@pytest.fixture(scope="module")
def mixed_report():
    """One small campaign shared by the recovery/record/CLI tests."""
    return run_serve_campaign(["mixed"], scale=10, nodes=2, seed=0)


class TestServeCampaign:
    def test_mixed_scenario_recovers(self, mixed_report):
        assert mixed_report["schema"] == "repro.chaos/v1"
        assert mixed_report["mode"] == "serve"
        assert mixed_report["ok"] is True
        (entry,) = mixed_report["scenarios"]
        assert entry["outcome"] == "recovered"
        checks = entry["checks"]
        assert checks["all_queries_terminal"]
        assert checks["slo_burn_detected"]
        assert checks["slo_recovered"]
        assert checks["dispatcher_restarted"]
        assert checks["answers_correct"]
        assert entry["slo_after"]["verdict"] == "ok"
        assert entry["events"], "injected faults must be recorded"

    def test_unknown_scenario_errors(self):
        with pytest.raises(ConfigError):
            run_serve_campaign(["no-such-thing"], scale=10)


class TestServeChaosCLI:
    def test_list(self, capsys):
        assert chaos_main(["serve", "list"]) == 0
        out = capsys.readouterr().out
        assert "mixed" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert chaos_main(["serve", "bogus-scenario"]) == 2

    def test_session_error_scenario_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        slo = tmp_path / "slo.json"
        code = chaos_main(
            [
                "serve", "session-error",
                "--scale", "10",
                "--json", str(out),
                "--slo-out", str(slo),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        (entry,) = report["scenarios"]
        assert entry["outcome"] == "recovered"
        assert entry["checks"]["retry_fired"]
        slo_doc = json.loads(slo.read_text())
        assert slo_doc["session-error"]["verdict"] == "ok"
        table = capsys.readouterr().out
        assert "recovered" in table
