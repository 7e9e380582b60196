"""``repro-perf compare``'s statistics and pair order, on synthetic runs
(no subprocess, no checkout)."""

import math

import pytest

from repro.obs.compare import judge, pair_order, run_pairs, sign_test

METRICS = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_ms_p50", "better": "lower"},
    {"name": "sim_gteps_hmean", "better": "higher"},
]


class TestSignTest:
    def test_exact_binomial_tails(self):
        assert sign_test(10, 0) == pytest.approx(2 / 2**10)
        assert sign_test(0, 10) == sign_test(10, 0)
        # 9 of 10: P(X <= 1) = 11 / 1024, two-sided.
        assert sign_test(9, 1) == pytest.approx(22 / 1024)
        assert sign_test(7, 3) == pytest.approx(
            2 * sum(math.comb(10, i) for i in range(4)) / 1024
        )

    def test_balanced_and_empty_are_one(self):
        assert sign_test(5, 5) == 1.0
        assert sign_test(0, 0) == 1.0

    def test_five_pairs_can_never_be_significant(self):
        assert sign_test(5, 0) == pytest.approx(0.0625)


class TestJudge:
    def test_direction_of_a_higher_is_better_metric(self):
        v = judge("ops_per_s", "higher", [10.0] * 10, [11.0] * 10)
        assert (v.wins, v.losses, v.verdict) == (10, 0, "better")
        assert v.rel_change == pytest.approx(0.1)
        assert not v.failed

    def test_lower_is_better_regression_fails(self):
        v = judge("op_ms_p50", "lower", [1.0] * 10, [1.2] * 10)
        assert (v.wins, v.losses, v.verdict) == (0, 10, "worse")
        assert v.failed

    def test_noise_is_same(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        change = [1.1, 1.9, 3.1, 3.9, 5.1, 5.9]
        v = judge("op_ms_p50", "lower", base, change)
        assert (v.wins, v.losses, v.verdict) == (3, 3, "same")

    def test_quartiles(self):
        v = judge("ops_per_s", "higher", [1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert v.base == (2.0, 3.0, 4.0)
        assert v.change == (3.0, 4.0, 5.0)

    def test_exact_metric_any_loss_fails(self):
        same = judge("sim_gteps_hmean", "higher", [3.0] * 4, [3.0] * 4)
        assert same.verdict == "identical" and not same.failed
        one = judge("sim_gteps_hmean", "higher", [3.0] * 4, [3.0] * 3 + [2.9])
        assert one.verdict == "worse" and one.failed
        up = judge("sim_gteps_hmean", "higher", [3.0] * 4, [3.1] * 4)
        assert up.verdict == "moved" and not up.failed

    def test_unpaired_input_is_rejected(self):
        with pytest.raises(ValueError):
            judge("ops_per_s", "higher", [1.0], [])


class TestRunPairs:
    def test_pair_order_alternates_who_starts(self):
        assert pair_order(4) == [
            ("base", "change"), ("change", "base"),
            ("base", "change"), ("change", "base"),
        ]

    def test_warm_up_then_alternating_pairs(self):
        calls = []

        def run(side, workload):
            calls.append((side, workload))
            n = len(calls)
            return {
                "ops_per_s": 10.0 + (side == "change") + 0.01 * n,
                "op_ms_p50": 1.0,
                "sim_gteps_hmean": 5.0,
            }

        out = run_pairs(run, ["w1", "w2"], METRICS, pairs=3)
        w1 = calls[:8]
        assert w1 == [
            ("base", "w1"), ("change", "w1"),  # warm-ups
            ("base", "w1"), ("change", "w1"),
            ("change", "w1"), ("base", "w1"),
            ("base", "w1"), ("change", "w1"),
        ]
        assert calls[8:] == [(s, "w2") for s, _ in w1]
        verdicts, failed = out["w1"]
        assert failed == 0
        by_name = {v.name: v for v in verdicts}
        assert by_name["ops_per_s"].wins == 3
        assert by_name["op_ms_p50"].verdict == "same"
        assert by_name["sim_gteps_hmean"].verdict == "identical"

    def test_a_failed_run_drops_its_pair(self):
        count = iter(range(100))

        def run(side, workload):
            n = next(count)
            if n == 3:
                return None
            return {m["name"]: 1.0 for m in METRICS}

        verdicts, failed = run_pairs(run, ["w"], METRICS, pairs=4)["w"]
        assert failed == 1
        assert verdicts[0].wins + verdicts[0].losses == 0
