"""The ``repro-serve`` CLI: report shape and artifacts."""

import json

import pytest

from repro.serve.cli import main
from repro.serve.report import SCHEMA, build_report

ARGS = [
    "--scale", "10",
    "--nodes", "1",
    "--queries", "24",
    "--root-pool", "4",
    "--max-batch", "8",
    "--graph-seed", "5",
]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One small campaign, reused by every assertion below."""
    out = tmp_path_factory.mktemp("serve") / "report.json"
    exit_code = main(ARGS + ["--json", str(out)])
    assert exit_code == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


class TestReportDocument:
    def test_schema_and_sections(self, report):
        assert report["schema"] == SCHEMA
        for section in (
            "workload",
            "load",
            "latency_ms",
            "throughput",
            "scheduler",
            "caches",
        ):
            assert section in report, section

    def test_latency_percentiles_present(self, report):
        latency = report["latency_ms"]
        assert latency["count"] == 24
        for q in ("p50", "p90", "p99"):
            assert latency[q] >= 0.0
        assert latency["p99"] >= latency["p50"]

    def test_throughput_block(self, report):
        throughput = report["throughput"]
        assert throughput["queries"] == 24
        assert throughput["qps_achieved"] > 0
        assert throughput["wall_seconds"] > 0

    def test_prepared_cache_hit_rate_nonzero(self, report):
        # The warm-up session misses, the serving session hits.
        assert report["caches"]["prepared"]["hit_rate"] > 0

    def test_workload_axes(self, report):
        workload = report["workload"]
        assert workload["scale"] == 10
        assert workload["num_vertices"] == 1024
        assert workload["graph_digest"]


class TestLiveOps:
    def test_report_has_no_slo_without_flags(self, report):
        assert report["slo"] is None

    def test_campaign_with_ops_slo_and_trace(self, tmp_path):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        code = main(
            ARGS
            + [
                "--ops-port", "0",
                "--slo-p99-ms", "200",
                "--slo-error-rate", "0.01",
                "--trace-out", str(trace),
                "--json", str(out),
            ]
        )
        assert code == 0
        slo = json.loads(out.read_text())["slo"]
        assert slo["schema"] == "repro.slo/v1"
        assert slo["verdict"] in (
            "ok", "insufficient", "slow_burn", "fast_burn", "breach",
        )
        labels = {o["label"] for o in slo["objectives"]}
        assert labels == {"p99_le_200ms", "errors_le_1pct"}
        assert slo["totals"]["requests"] == 24.0
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "serve.batch_assembly" in names
        assert any(n and n.startswith("lane ") for n in names)


class TestCompareSequential:
    def test_comparison_block(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(ARGS + ["--compare-sequential", "--json", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        comparison = report["comparison"]
        assert comparison["roots"] == 8
        assert comparison["sequential_qps"] > 0
        assert comparison["batched_qps"] > 0
        assert comparison["speedup"] > 0


class TestBuildReport:
    def test_none_comparison_is_preserved(self):
        class _Fake:
            """Minimal stand-in for a LoadGenResult."""

            def as_dict(self):
                """The fields build_report consumes."""
                return {
                    "queries": 1,
                    "qps_offered": None,
                    "qps_achieved": 1.0,
                    "wall_seconds": 1.0,
                    "latency_ms": {},
                    "scheduler": {},
                    "distinct_roots": 1,
                }

        report = build_report({}, {}, _Fake(), {"hit_rate": 0.0})
        assert report["comparison"] is None
        assert report["schema"] == SCHEMA
