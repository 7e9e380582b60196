"""Request-scoped serving traces: every request resolves to a chain."""

import asyncio

import pytest

from repro.core.prepared import PreparedGraphCache
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.obs.export import request_chain, serve_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import BFSService

SCALE = 10


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=SCALE, edgefactor=8, seed=5)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(nodes=1)


def traced_scheduler(graph, cluster, **kwargs):
    tracer = SpanTracer()
    service = BFSService(cache=PreparedGraphCache(maxsize=4), cluster=cluster)
    session = service.session(graph, tracer=tracer)
    scheduler = BatchScheduler(session, tracer=tracer, **kwargs)
    return scheduler, tracer


async def _serve(scheduler, waves):
    """Submit each wave concurrently, waves sequentially."""
    results = []
    async with scheduler:
        for wave in waves:
            results.extend(
                await asyncio.gather(
                    *(scheduler.submit(s) for s in wave)
                )
            )
    return results


def served_trace_ids(spans):
    """Every trace id the scheduler stamped on a request span."""
    return sorted(
        sp.attrs["trace_id"]
        for sp in spans
        if sp.name in ("serve.queue_wait", "serve.cache_hit")
    )


class TestRequestChains:
    def test_every_request_resolves(self, graph, cluster):
        scheduler, tracer = traced_scheduler(
            graph, cluster, max_batch=4, max_wait_ms=5.0
        )
        # Second wave repeats sources: result-cache hits; the repeat
        # inside wave one coalesces into a shared lane.
        waves = [[3, 9, 3, 17], [9, 17, 21]]
        asyncio.run(_serve(scheduler, waves))
        ids = served_trace_ids(tracer.spans)
        assert len(ids) == 7  # one per submitted query
        assert len(set(ids)) == 7
        chains = [request_chain(tracer.spans, tid) for tid in ids]
        hits = [c for c in chains if c["cache_hit"]]
        cold = [c for c in chains if not c["cache_hit"]]
        assert len(hits) == 2  # 9 and 17 served from the result cache
        for chain in cold:
            assert chain["batch_id"] is not None
            assert chain["levels"], "run recorded no level spans"

    def test_coalesced_waiters_share_a_lane(self, graph, cluster):
        scheduler, tracer = traced_scheduler(
            graph, cluster, max_batch=4, max_wait_ms=5.0
        )
        asyncio.run(_serve(scheduler, [[5, 5, 5]]))
        ids = served_trace_ids(tracer.spans)
        chains = [request_chain(tracer.spans, tid) for tid in ids]
        lanes = {(c["batch_id"], c["lane"]) for c in chains}
        assert len(chains) == 3 and len(lanes) == 1
        (lane_span,) = [
            sp for sp in tracer.spans if sp.name == "batch.lane"
        ]
        assert sorted(lane_span.attrs["trace_ids"]) == ids

    def test_unknown_trace_id_raises(self, graph, cluster):
        scheduler, tracer = traced_scheduler(graph, cluster)
        asyncio.run(_serve(scheduler, [[3]]))
        with pytest.raises(ValueError, match="no span"):
            request_chain(tracer.spans, "req-999999")

    def test_untraced_session_records_nothing(self, graph, cluster):
        service = BFSService(
            cache=PreparedGraphCache(maxsize=4), cluster=cluster
        )
        session = service.session(graph)
        scheduler = BatchScheduler(session)
        assert scheduler.tracer is NULL_TRACER
        asyncio.run(_serve(scheduler, [[3, 9]]))
        assert scheduler.queries == 2


class TestBatchSpans:
    def test_run_and_level_spans_linked(self, graph, cluster):
        scheduler, tracer = traced_scheduler(
            graph, cluster, max_batch=4, max_wait_ms=5.0
        )
        asyncio.run(_serve(scheduler, [[3, 9]]))
        (run,) = [sp for sp in tracer.spans if sp.name == "batch.run"]
        assert run.attrs["lanes"] == 2
        assert sorted(run.attrs["sources"]) == [3, 9]
        levels = [
            sp
            for sp in tracer.spans
            if sp.name == "level" and sp.parent == run.index
        ]
        assert levels
        assert [sp.attrs["level"] for sp in levels] == list(
            range(len(levels))
        )
        for sp in levels:
            assert "top_down" in sp.attrs and "bottom_up" in sp.attrs

    def test_queue_wait_span_brackets_pickup(self, graph, cluster):
        scheduler, tracer = traced_scheduler(graph, cluster)
        asyncio.run(_serve(scheduler, [[3]]))
        (wait,) = [
            sp for sp in tracer.spans if sp.name == "serve.queue_wait"
        ]
        assert wait.end_ns >= wait.start_ns > 0
        assert wait.attrs["source"] == 3


class TestServeChromeTrace:
    def test_lane_labels_and_request_tracks(self, graph, cluster):
        scheduler, tracer = traced_scheduler(
            graph, cluster, max_batch=4, max_wait_ms=5.0
        )
        asyncio.run(_serve(scheduler, [[3, 9], [3]]))
        doc = serve_chrome_trace(tracer)
        events = doc["traceEvents"]
        lanes = [
            e for e in events if e.get("name", "").startswith("lane ")
        ]
        assert {e["name"] for e in lanes} == {"lane 0 src 3", "lane 1 src 9"}
        for e in lanes:
            assert e["args"]["source"] in (3, 9)
        # Request-scoped spans ride their own named track.
        thread_names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "pipeline" in thread_names
        assert {"req-000000", "req-000001", "req-000002"} <= thread_names
        request_events = [
            e for e in events if e.get("cat") == "request"
        ]
        assert all(e["tid"] >= 1 for e in request_events)

    def test_timestamps_normalized(self, graph, cluster):
        scheduler, tracer = traced_scheduler(graph, cluster)
        asyncio.run(_serve(scheduler, [[3]]))
        doc = serve_chrome_trace(tracer)
        ts = [
            e["ts"]
            for e in doc["traceEvents"]
            if e.get("ph") in ("X", "i")
        ]
        assert min(ts) == 0.0


class TestMetricsFromServing:
    def test_counters_and_gauges_settle(self, graph, cluster):
        registry = MetricsRegistry()
        service = BFSService(
            cache=PreparedGraphCache(maxsize=4), cluster=cluster
        )
        session = service.session(graph)
        scheduler = BatchScheduler(session, metrics=registry)
        asyncio.run(_serve(scheduler, [[3, 9], [3]]))
        assert registry.counter("serve.requests_total").value == 3.0
        assert registry.counter("serve.result_cache.hits").value == 1.0
        assert registry.gauge("serve.queue_depth").value == 0.0
        assert registry.gauge("serve.inflight_batches").value == 0.0
        assert registry.histogram("serve.latency_ms").count == 3
