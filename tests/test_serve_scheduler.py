"""The serving layer: sessions, the batch scheduler, and the load gen."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.config import BFSConfig, CommConfig
from repro.core.engine import BFSEngine
from repro.core.prepared import PreparedGraphCache
from repro.errors import ConfigError, GraphError
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.obs.metrics import MetricsRegistry
from repro.serve.loadgen import pick_root_pool, run_load
from repro.serve.scheduler import BatchScheduler, ResultCache
from repro.serve.session import BFSService
from tests.serve_stubs import StubSession

SCALE = 10


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=SCALE, edgefactor=8, seed=5)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(nodes=1)


@pytest.fixture()
def service(cluster):
    return BFSService(cache=PreparedGraphCache(maxsize=4), cluster=cluster)


@pytest.fixture()
def session(service, graph):
    return service.session(graph)


def test_session_shares_prepared_state(service, graph, cluster):
    a = service.session(graph)
    b = service.session(graph, config=BFSConfig(comm=CommConfig(codec="raw")))
    assert a.prepared is b.prepared
    stats = service.prepared_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_session_single_query_matches_engine(session, graph, cluster):
    root = int(np.argmax(graph.degrees()))
    served = session.run(root)
    direct = BFSEngine(graph, cluster, session.config).run(root)
    assert np.array_equal(served.parent, direct.parent)
    assert served.seconds == direct.seconds


class TestResultCache:
    def test_lru_semantics(self):
        cache = ResultCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes 'a'
        cache.put(("c",), 3)  # evicts 'b'
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ConfigError):
            ResultCache(maxsize=0)

    def test_stats_at_zero_lookups(self):
        stats = ResultCache().stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["lookups"] == 0
        assert stats["hit_rate"] == 0.0  # not a division error

    def test_lookups_is_the_hit_rate_denominator(self):
        cache = ResultCache(maxsize=2)
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.get(("b",))
        stats = cache.stats()
        assert stats["lookups"] == stats["hits"] + stats["misses"] == 2
        assert stats["hit_rate"] == 0.5

    def test_prepared_cache_stats_at_zero_lookups(self):
        stats = PreparedGraphCache().stats()
        assert stats["lookups"] == 0
        assert stats["hit_rate"] == 0.0


class TestScheduler:
    def test_submit_requires_running_scheduler(self, session):
        scheduler = BatchScheduler(session)
        with pytest.raises(ConfigError, match="not running"):
            asyncio.run(scheduler.submit(0))

    def test_max_batch_validated(self, session):
        with pytest.raises(ConfigError, match="max_batch"):
            BatchScheduler(session, max_batch=65)
        with pytest.raises(ConfigError, match="max_batch"):
            BatchScheduler(session, max_batch=0)
        with pytest.raises(ConfigError, match="max_wait"):
            BatchScheduler(session, max_wait_ms=-1)

    def test_concurrent_burst_is_batched_and_identical(
        self, session, graph, cluster
    ):
        rng = np.random.default_rng(8)
        roots = [int(r) for r in rng.integers(0, graph.num_vertices, 12)]
        scheduler = BatchScheduler(session, max_batch=16, max_wait_ms=20.0)

        async def burst():
            async with scheduler:
                return await asyncio.gather(
                    *(scheduler.submit(r) for r in roots)
                )

        results = asyncio.run(burst())
        engine = BFSEngine(graph, cluster, session.config)
        for root, res in zip(roots, results):
            seq = engine.run(root)
            assert np.array_equal(seq.parent, res.parent), root
            assert seq.seconds == res.seconds, root
        stats = scheduler.stats()
        assert stats["queries"] == len(roots)
        assert stats["batches"] < len(roots)  # actually coalesced work
        assert stats["batched_queries"] == len(roots)

    def test_duplicate_sources_coalesce_to_one_lane(self, session):
        root = 1
        scheduler = BatchScheduler(
            session, max_batch=8, max_wait_ms=50.0, result_cache=None
        )

        async def dupes():
            async with scheduler:
                return await asyncio.gather(
                    *(scheduler.submit(root) for _ in range(6))
                )

        results = asyncio.run(dupes())
        assert all(r is results[0] for r in results)  # one shared answer
        assert scheduler.coalesced >= 5

    def test_result_cache_serves_repeats(self, session):
        scheduler = BatchScheduler(session, max_batch=4, max_wait_ms=1.0)

        async def twice():
            async with scheduler:
                first = await scheduler.submit(2)
                second = await scheduler.submit(2)
                return first, second

        first, second = asyncio.run(twice())
        assert second is first
        assert scheduler.results.stats()["hits"] == 1
        hits = scheduler.metrics.counter("serve.result_cache.hits")
        assert hits.value == 1.0

    def test_query_errors_propagate_to_waiters(self, session, graph):
        scheduler = BatchScheduler(session, max_batch=4, max_wait_ms=10.0)

        async def bad():
            async with scheduler:
                return await asyncio.gather(
                    scheduler.submit(graph.num_vertices + 3),
                    scheduler.submit(graph.num_vertices + 4),
                    return_exceptions=True,
                )

        results = asyncio.run(bad())
        assert all(isinstance(r, GraphError) for r in results)

    def test_latency_histogram_is_recorded(self, session):
        scheduler = BatchScheduler(session, max_batch=2, max_wait_ms=1.0)

        async def go():
            async with scheduler:
                await asyncio.gather(*(scheduler.submit(i) for i in (3, 4)))

        asyncio.run(go())
        hist = scheduler.metrics.histogram("serve.latency_ms")
        assert hist.count == 2
        assert hist.max > 0.0


class TestSchedulerConcurrencyEdges:
    """Lifecycle and backpressure edges, observed via a stub session."""

    def test_submit_after_stop_raises_cleanly(self):
        async def go():
            scheduler = BatchScheduler(StubSession(), result_cache=None)
            await scheduler.start()
            assert await scheduler.submit(1) == ("result", 1)
            await scheduler.stop()
            with pytest.raises(ConfigError, match="not running"):
                await scheduler.submit(2)
            # A stopped scheduler is restartable.
            await scheduler.start()
            assert await scheduler.submit(3) == ("result", 3)
            await scheduler.stop()

        asyncio.run(go())

    def test_queue_depth_gauge_rises_and_falls_under_burst(self):
        release = threading.Event()
        registry = MetricsRegistry()
        scheduler = BatchScheduler(
            StubSession(release=release),
            max_batch=2,
            max_wait_ms=0.0,
            result_cache=None,
            metrics=registry,
        )

        async def go():
            async with scheduler:
                tasks = [
                    asyncio.ensure_future(scheduler.submit(i))
                    for i in range(6)
                ]
                await asyncio.sleep(0.15)  # first batch blocked in executor
                assert scheduler.in_flight == 1
                assert (
                    registry.gauge("serve.inflight_batches").value == 1.0
                )
                depth = scheduler.queue_depth
                gauge = registry.gauge("serve.queue_depth").value
                release.set()
                await asyncio.gather(*tasks)
                return depth, gauge

        depth, gauge = asyncio.run(go())
        assert depth >= 1  # burst outran the blocked dispatcher
        assert gauge >= 1.0
        assert scheduler.queue_depth == 0
        assert registry.gauge("serve.queue_depth").value == 0.0
        assert scheduler.in_flight == 0
        stats = scheduler.stats()
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0

    def test_queued_work_coalesces_while_engine_is_busy(self):
        release = threading.Event()
        stub = StubSession(release=release)
        scheduler = BatchScheduler(
            stub, max_batch=8, max_wait_ms=0.0, result_cache=None
        )

        async def go():
            async with scheduler:
                first = asyncio.ensure_future(scheduler.submit(0))
                await asyncio.sleep(0.1)  # batch [0] picked up, blocked
                rest = [
                    asyncio.ensure_future(scheduler.submit(i))
                    for i in (1, 2, 3, 4)
                ]
                await asyncio.sleep(0.05)  # all four sit in the queue
                release.set()
                await asyncio.gather(first, *rest)

        asyncio.run(go())
        # Everything queued behind the slow batch rides one batch even
        # with max_wait 0 — already-queued work joins without waiting.
        assert stub.batches[0] == [0]
        assert sorted(stub.batches[1]) == [1, 2, 3, 4]
        assert scheduler.batches == 2

    def test_max_wait_holds_a_batch_open(self):
        stub = StubSession()
        scheduler = BatchScheduler(
            stub, max_batch=8, max_wait_ms=250.0, result_cache=None
        )

        async def go():
            async with scheduler:
                a = asyncio.ensure_future(scheduler.submit(1))
                await asyncio.sleep(0.05)  # well inside max_wait
                b = asyncio.ensure_future(scheduler.submit(2))
                await asyncio.gather(a, b)

        asyncio.run(go())
        assert scheduler.batches == 1
        assert sorted(stub.batches[0]) == [1, 2]

    def test_zero_max_wait_dispatches_immediately(self):
        stub = StubSession()
        scheduler = BatchScheduler(
            stub, max_batch=8, max_wait_ms=0.0, result_cache=None
        )

        async def go():
            async with scheduler:
                await scheduler.submit(1)
                await scheduler.submit(2)

        asyncio.run(go())
        assert scheduler.batches == 2

    def test_health_transitions(self):
        async def go():
            scheduler = BatchScheduler(StubSession(), result_cache=None)
            assert scheduler.health() == (True, {"state": "idle"})
            await scheduler.start()
            ok, detail = scheduler.health()
            assert ok and detail["state"] == "running"
            assert detail["queue_depth"] == 0
            await scheduler.stop()
            assert scheduler.health() == (True, {"state": "idle"})

        asyncio.run(go())

    def test_health_reports_crashed_dispatcher(self):
        async def go():
            scheduler = BatchScheduler(StubSession(), result_cache=None)
            await scheduler.start()

            async def boom(loop, batch):
                raise RuntimeError("dispatcher bug")

            scheduler._run_batch = boom
            pending = asyncio.ensure_future(scheduler.submit(1))
            await asyncio.sleep(0.1)
            ok, detail = scheduler.health()
            assert not ok
            assert detail["state"] == "crashed"
            assert "dispatcher bug" in detail["error"]
            pending.cancel()
            with pytest.raises(asyncio.CancelledError):
                await pending

        asyncio.run(go())


class TestLoadGen:
    def test_pick_root_pool_excludes_zero_degree(self, graph):
        pool = pick_root_pool(graph, 32, seed=1)
        assert pool.size == 32
        assert (graph.degrees()[pool] > 0).all()

    def test_pool_validation(self, graph):
        with pytest.raises(ConfigError):
            pick_root_pool(graph, 0)

    def test_run_load_burst(self, session):
        result = run_load(
            session,
            queries=20,
            root_pool=4,
            seed=2,
            max_batch=8,
            max_wait_ms=5.0,
        )
        assert result.queries == 20
        assert result.wall_seconds > 0
        assert result.qps_achieved > 0
        assert result.latency_ms["count"] == 20
        assert result.latency_ms["p99"] >= result.latency_ms["p50"]
        assert result.distinct_roots <= 4
        doc = result.as_dict()
        assert doc["qps_offered"] is None  # inf burst serializes as None
        assert doc["scheduler"]["queries"] == 20

    def test_run_load_explicit_roots_and_rate(self, session):
        roots = [1, 2, 3, 4]
        result = run_load(
            session, qps=2000.0, roots=roots, max_batch=4, result_cache=None
        )
        assert result.queries == 4
        assert result.distinct_roots == 4
        assert result.as_dict()["qps_offered"] == 2000.0

    def test_run_load_validation(self, session):
        with pytest.raises(ConfigError):
            run_load(session, queries=0)
        with pytest.raises(ConfigError):
            run_load(session, qps=0.0)
