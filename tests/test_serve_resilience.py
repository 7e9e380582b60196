"""Serving-layer resilience: deadlines, shedding, hedging, supervision."""

import asyncio
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.prepared import PreparedGraphCache
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ServeOverloadError,
)
from repro.faults.plan import FaultPlan, ServeFault
from repro.faults.serveinject import ServeFaultInjector
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.serve.loadgen import run_load
from repro.serve.report import build_report
from repro.serve.resilience import (
    SHED_POLICIES,
    CancelToken,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.serve.scheduler import BatchScheduler, ResultCache
from repro.serve.session import BFSService
from tests.serve_stubs import StubResult, StubSession


class TestResiliencePolicy:
    def test_defaults_validate(self):
        policy = ResiliencePolicy()
        assert policy.shed_policy in SHED_POLICIES
        doc = policy.as_dict()
        assert doc["hedge"] is True
        assert doc["max_queue_depth"] is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"shed_policy": "panic"},
            {"degrade_max_batch": 0},
            {"hedge_percentile": 0.0},
            {"hedge_percentile": 101.0},
            {"hedge_min_ms": -1.0},
            {"hedge_warmup": 0},
            {"breaker_threshold": -1},
            {"breaker_cooldown_s": 0.0},
            {"restart_backoff_s": 0.0},
            {"restart_backoff_s": 1.0, "restart_backoff_max_s": 0.5},
            {"max_restarts": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ResiliencePolicy(**kwargs)


class TestCancelToken:
    def test_manual_cancel(self):
        token = CancelToken()
        assert not token.cancelled
        token.check("anywhere")  # no-op before firing
        token.cancel()
        assert token.cancelled
        with pytest.raises(DeadlineExceededError) as err:
            token.check("level 3")
        assert err.value.context["where"] == "level 3"

    def test_deadline_fires_via_clock(self):
        now = [0.0]
        token = CancelToken(deadline=1.0, clock=lambda: now[0])
        assert not token.cancelled
        assert token.remaining == 1.0
        now[0] = 2.0
        assert token.remaining == 0.0
        assert token.cancelled
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_no_deadline_has_no_remaining(self):
        assert CancelToken().remaining is None


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        now = [0.0]
        breaker = CircuitBreaker(2, 10.0, clock=lambda: now[0])
        key = ("g", "c")
        assert breaker.state(key) == "closed"
        breaker.record_failure(key)
        assert breaker.allow(key)
        breaker.record_failure(key)
        assert breaker.state(key) == "open"
        assert not breaker.allow(key)
        assert breaker.fast_fails == 1
        # Cooldown elapses: exactly one half-open probe is admitted.
        now[0] = 11.0
        assert breaker.state(key) == "half-open"
        assert breaker.allow(key)
        assert not breaker.allow(key)  # second caller keeps fast-failing
        breaker.record_success(key)
        assert breaker.state(key) == "closed"
        assert breaker.allow(key)
        assert breaker.trips == 1

    def test_failed_probe_restarts_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(1, 5.0, clock=lambda: now[0])
        breaker.record_failure("k")
        now[0] = 6.0
        assert breaker.allow("k")  # the probe
        breaker.record_failure("k")
        assert breaker.state("k") == "open"
        assert not breaker.allow("k")

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(2, 5.0)
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "closed"

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(0, 5.0)
        for _ in range(10):
            breaker.record_failure("k")
        assert breaker.allow("k")
        assert breaker.snapshot()["trips"] == 0

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(1, 5.0)
        breaker.record_failure(("d", "c"))
        snap = breaker.snapshot()
        assert snap["threshold"] == 1
        assert list(snap["states"].values()) == ["open"]


class TestResultCacheBounds:
    def test_byte_bound_evicts_lru(self):
        cache = ResultCache(maxsize=16, max_bytes=600)
        # Stub results have no parent array: each costs the 256-byte
        # constant, so the third insert pushes bytes past 600.
        cache.put(("a",), StubResult(root=1))
        cache.put(("b",), StubResult(root=2))
        cache.put(("c",), StubResult(root=3))
        assert len(cache) == 2
        assert cache.get(("a",)) is None
        assert cache.get(("c",)).root == 3
        stats = cache.stats()
        assert stats["bytes"] == 512
        assert stats["max_bytes"] == 600

    def test_byte_bound_keeps_at_least_one_entry(self):
        cache = ResultCache(maxsize=4, max_bytes=1)
        cache.put(("a",), StubResult(root=1))
        assert len(cache) == 1

    def test_ttl_expires_fresh_reads_but_not_stale_ones(self):
        now = [0.0]
        cache = ResultCache(maxsize=4, ttl_s=1.0, clock=lambda: now[0])
        cache.put(("a",), StubResult(root=1))
        assert cache.get(("a",)).root == 1
        now[0] = 2.0
        assert cache.get(("a",)) is None  # expired for fresh reads
        served = cache.get_stale(("a",))
        assert served is not None
        result, age, stale = served
        assert result.root == 1 and age == 2.0 and stale
        assert cache.stats()["stale_hits"] == 1

    def test_get_stale_respects_max_age(self):
        now = [0.0]
        cache = ResultCache(maxsize=4, ttl_s=1.0, clock=lambda: now[0])
        cache.put(("a",), StubResult(root=1))
        now[0] = 5.0
        assert cache.get_stale(("a",), max_age_s=3.0) is None

    def test_invalidate(self):
        cache = ResultCache(maxsize=4)
        cache.put(("a",), StubResult(root=1))
        assert cache.invalidate(("a",))
        assert not cache.invalidate(("a",))
        assert cache.stats()["bytes"] == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResultCache(max_bytes=0)
        with pytest.raises(ConfigError):
            ResultCache(ttl_s=0.0)


async def _pickup(scheduler):
    """Wait until the dispatcher has picked up the queued batch."""
    for _ in range(200):
        if scheduler.in_flight and scheduler.queue_depth == 0:
            return
        await asyncio.sleep(0.005)
    raise AssertionError("dispatcher never picked up the batch")


class TestDeadlines:
    def test_expired_in_queue_is_shed(self):
        release = threading.Event()
        session = StubSession(release=release)
        scheduler = BatchScheduler(
            session,
            max_batch=1,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(supervise=False, hedge=False),
        )

        async def go():
            async with scheduler:
                blocker = asyncio.ensure_future(scheduler.submit(0))
                await _pickup(scheduler)
                victim = asyncio.ensure_future(
                    scheduler.submit(1, deadline_ms=1.0)
                )
                await asyncio.sleep(0.05)  # deadline expires while queued
                release.set()
                await blocker
                with pytest.raises(DeadlineExceededError) as err:
                    await victim
                assert err.value.context["source"] == 1
            return scheduler.metrics.counter(
                "serve.shed_total", reason="deadline"
            ).value

        assert asyncio.run(go()) == 1
        assert scheduler.stats()["resilience"]["counts"]["shed_deadline"] == 1
        # The expired query never reached the session.
        assert [b for b in session.batches if 1 in b] == []

    def test_expired_in_queue_is_shed_without_policy(self):
        """Deadlines are not a policy feature: ``resilience=None`` runs
        the same shedding path."""
        release = threading.Event()
        session = StubSession(release=release)
        scheduler = BatchScheduler(
            session, max_batch=1, max_wait_ms=0.0, result_cache=None
        )

        async def go():
            async with scheduler:
                blocker = asyncio.ensure_future(scheduler.submit(0))
                await _pickup(scheduler)
                victims = [
                    asyncio.ensure_future(scheduler.submit(s, deadline_ms=1.0))
                    for s in (1, 2, 3)
                ]
                await asyncio.sleep(0.05)  # deadlines expire while queued
                release.set()
                assert (await blocker).root == 0
                return await asyncio.gather(*victims, return_exceptions=True)

        outcomes = asyncio.run(go())
        assert all(isinstance(o, DeadlineExceededError) for o in outcomes)
        assert [o.context["source"] for o in outcomes] == [1, 2, 3]
        assert session.batches == [[0]]
        assert scheduler.stats()["resilience"] is None


class TestAdmissionControl:
    def _scheduler(self, session, shed_policy, **policy_kwargs):
        return BatchScheduler(
            session,
            max_batch=1,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(
                max_queue_depth=1,
                shed_policy=shed_policy,
                supervise=False,
                hedge=False,
                **policy_kwargs,
            ),
        )

    def test_reject_when_queue_full(self):
        release = threading.Event()
        session = StubSession(release=release)
        scheduler = self._scheduler(session, "reject")

        async def go():
            async with scheduler:
                blocker = asyncio.ensure_future(scheduler.submit(0))
                await _pickup(scheduler)
                queued = asyncio.ensure_future(scheduler.submit(1))
                await asyncio.sleep(0.02)
                with pytest.raises(ServeOverloadError) as err:
                    await scheduler.submit(2)
                assert err.value.context["reason"] == "queue_full"
                release.set()
                assert (await blocker).root == 0
                assert (await queued).root == 1

        asyncio.run(go())
        counts = scheduler.stats()["resilience"]["counts"]
        assert counts["shed_queue_full"] == 1

    def test_drop_oldest_evicts_queued_waiter(self):
        release = threading.Event()
        session = StubSession(release=release)
        scheduler = self._scheduler(session, "drop-oldest")

        async def go():
            async with scheduler:
                blocker = asyncio.ensure_future(scheduler.submit(0))
                await _pickup(scheduler)
                victim = asyncio.ensure_future(scheduler.submit(1))
                await asyncio.sleep(0.02)
                newcomer = asyncio.ensure_future(scheduler.submit(2))
                await asyncio.sleep(0.02)
                release.set()
                assert (await blocker).root == 0
                assert (await newcomer).root == 2
                with pytest.raises(ServeOverloadError) as err:
                    await victim
                assert err.value.context["reason"] == "shed"
                assert err.value.context["source"] == 1

        asyncio.run(go())
        assert 1 not in [s for b in session.batches for s in b]

    def test_degrade_serves_stale_and_shrinks_batches(self):
        release = threading.Event()
        session = StubSession(release=release)
        cache = ResultCache(maxsize=8, ttl_s=0.01)
        scheduler = BatchScheduler(
            session,
            max_batch=32,
            max_wait_ms=0.0,
            result_cache=cache,
            resilience=ResiliencePolicy(
                max_queue_depth=1,
                shed_policy="degrade",
                degrade_max_batch=2,
                supervise=False,
                hedge=False,
            ),
        )

        async def go():
            async with scheduler:
                release.set()
                first = await scheduler.submit(7)  # populates the cache
                assert first.root == 7
                await asyncio.sleep(0.03)  # cache entry goes stale
                release.clear()
                blocker = asyncio.ensure_future(scheduler.submit(0))
                await _pickup(scheduler)
                queued = asyncio.ensure_future(scheduler.submit(1))
                await asyncio.sleep(0.02)
                overflow = asyncio.ensure_future(scheduler.submit(2))
                await asyncio.sleep(0.02)
                assert scheduler.degraded
                # Degraded + stale entry: served from cache, no queueing.
                stale = await scheduler.submit(7)
                assert stale.root == 7
                release.set()
                await asyncio.gather(blocker, queued, overflow)

        asyncio.run(go())
        resil = scheduler.stats()["resilience"]
        assert resil["counts"]["stale_served"] == 1
        assert resil["counts"]["degrade_entries"] == 1
        assert cache.stats()["stale_hits"] == 1
        assert scheduler.metrics.counter("serve.stale_served_total").value == 1


class TestHedging:
    def test_straggler_is_hedged_and_fresh_session_adopted(self):
        release = threading.Event()
        fast = StubSession()
        slow = StubSession(release=release, fresh_session=fast)
        scheduler = BatchScheduler(
            slow,
            max_batch=4,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=True,
                hedge_warmup=1,
                hedge_min_ms=10.0,
                supervise=False,
            ),
        )

        async def go():
            async with scheduler:
                release.set()
                await scheduler.submit(0)  # warm-up batch for the histogram
                release.clear()  # next primary batch stalls
                result = await scheduler.submit(1)
                assert result.root == 1
                release.set()

        asyncio.run(go())
        counts = scheduler.stats()["resilience"]["counts"]
        assert counts["hedges"] == 1
        assert counts["hedge_wins"] == 1
        assert scheduler.session is fast  # abandoned primary lost its session
        assert scheduler.metrics.counter("serve.hedge_total").value == 1

    def test_no_hedge_before_warmup(self):
        session = StubSession(delay_s=0.03)
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=True, hedge_warmup=8, hedge_min_ms=1.0, supervise=False
            ),
        )

        async def go():
            async with scheduler:
                await scheduler.submit(0)

        asyncio.run(go())
        assert scheduler.stats()["resilience"]["counts"].get("hedges", 0) == 0


class TestRetryAndBreaker:
    def test_failed_batch_retries_once_on_fresh_session(self):
        fast = StubSession()
        flaky = StubSession(fail_times=1, fresh_session=fast)
        scheduler = BatchScheduler(
            flaky,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
        )

        async def go():
            async with scheduler:
                result = await scheduler.submit(3)
                assert result.root == 3

        asyncio.run(go())
        counts = scheduler.stats()["resilience"]["counts"]
        assert counts["retries"] == 1
        assert flaky.fresh_calls == 1
        assert fast.batches == [[3]]

    def test_breaker_opens_after_consecutive_failures(self):
        broken = StubSession(fail_times=100)
        broken.fresh_session = broken  # retries land on the same wreck
        scheduler = BatchScheduler(
            broken,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False,
                supervise=False,
                breaker_threshold=2,
                breaker_cooldown_s=60.0,
            ),
        )

        async def go():
            async with scheduler:
                for _ in range(2):
                    with pytest.raises(RuntimeError):
                        await scheduler.submit(1)
                with pytest.raises(ServeOverloadError) as err:
                    await scheduler.submit(1)
                assert err.value.context["reason"] == "circuit_open"

        asyncio.run(go())
        resil = scheduler.stats()["resilience"]
        assert resil["breaker"]["trips"] == 1
        assert resil["breaker"]["fast_fails"] == 1
        assert resil["counts"]["batch_failures"] == 2

    def test_breaker_key_is_a_short_fingerprint(self):
        broken = StubSession(fail_times=1)
        broken.fresh_session = broken
        scheduler = BatchScheduler(
            broken,
            max_batch=1,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False, retry_failed=False, supervise=False,
                breaker_threshold=1, breaker_cooldown_s=60.0,
            ),
        )

        async def go():
            async with scheduler:
                with pytest.raises(RuntimeError):
                    await scheduler.submit(1)

        asyncio.run(go())
        states = scheduler.stats()["resilience"]["breaker"]["states"]
        ((key, state),) = states.items()
        digest, label, config_hash = key.split("/")
        assert (digest, label, state) == ("stub-digest", "stub", "open")
        assert len(config_hash) == 8 and int(config_hash, 16) >= 0

    def test_deadline_cancel_is_not_a_breaker_failure(self):
        scheduler = BatchScheduler(
            StubSession(fail_times=1, failure=DeadlineExceededError),
            max_batch=1,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False,
                supervise=False,
                breaker_threshold=1,
                breaker_cooldown_s=60.0,
            ),
        )

        async def go():
            async with scheduler:
                with pytest.raises(DeadlineExceededError):
                    await scheduler.submit(0, deadline_ms=10_000.0)

        asyncio.run(go())
        assert scheduler.stats()["resilience"]["breaker"]["trips"] == 0


class TestSupervision:
    def _plan(self, kills: int):
        return FaultPlan(
            seed=0,
            serve=(ServeFault(kind="dispatcher-kill", count=kills),),
        )

    def test_dispatcher_restart_replays_exactly_once(self):
        session = StubSession()
        injector = ServeFaultInjector(self._plan(1), armed=True)
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False,
                restart_backoff_s=0.01,
                restart_backoff_max_s=0.02,
            ),
            faults=injector,
        )

        async def go():
            async with scheduler:
                result = await scheduler.submit(5)
                assert result.root == 5
                healthy, detail = scheduler.health()
                assert healthy and detail["state"] == "running"

        asyncio.run(go())
        counts = scheduler.stats()["resilience"]["counts"]
        assert counts["restarts"] == 1
        assert counts["replayed"] == 1
        assert session.batches == [[5]]  # ran once, not twice
        assert (
            scheduler.metrics.counter("serve.dispatcher_restarts_total").value
            == 1
        )

    def test_query_lost_twice_is_rejected(self):
        session = StubSession()
        injector = ServeFaultInjector(self._plan(2), armed=True)
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False,
                restart_backoff_s=0.01,
                restart_backoff_max_s=0.02,
            ),
            faults=injector,
        )

        async def go():
            async with scheduler:
                with pytest.raises(ServeOverloadError) as err:
                    await scheduler.submit(5)
                assert err.value.context["reason"] == "replay_exhausted"

        asyncio.run(go())
        assert scheduler.stats()["resilience"]["counts"]["replayed"] == 1
        assert session.batches == []

    def test_supervisor_gives_up_after_max_restarts(self):
        session = StubSession()
        injector = ServeFaultInjector(self._plan(50), armed=True)
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(
                hedge=False,
                restart_backoff_s=0.005,
                restart_backoff_max_s=0.01,
                max_restarts=2,
            ),
            faults=injector,
        )

        async def go():
            async with scheduler:
                # Crashes 1 and 2 lose the first query twice.
                with pytest.raises(ServeOverloadError) as err:
                    await scheduler.submit(5)
                assert err.value.context["reason"] == "replay_exhausted"
                # Crash 3 exceeds max_restarts=2: the supervisor gives
                # up and fails the pending query instead of restarting.
                with pytest.raises(ServeOverloadError) as err:
                    await scheduler.submit(6)
                assert err.value.context["reason"] == "shutdown"
                healthy, detail = scheduler.health()
                assert not healthy
                assert detail["state"] == "failed"
                assert detail["restarts"] == 2

        asyncio.run(go())


class TestShutdownDraining:
    def test_stop_with_dead_dispatcher_rejects_pending(self):
        """Satellite: crashed-dispatcher shutdown hangs nothing and
        drops no futures."""
        session = StubSession()
        injector = ServeFaultInjector(
            FaultPlan(
                seed=0,
                serve=(ServeFault(kind="dispatcher-kill", count=99),),
            ),
            armed=True,
        )
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=None,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
            faults=injector,
        )

        async def go():
            await scheduler.start()
            pending = asyncio.ensure_future(scheduler.submit(1))
            await asyncio.sleep(0.05)  # dispatcher crashes on pickup
            healthy, detail = scheduler.health()
            assert not healthy and detail["state"] == "crashed"
            await asyncio.wait_for(scheduler.stop(), timeout=5.0)
            with pytest.raises(ServeOverloadError) as err:
                await pending
            assert err.value.context["reason"] == "shutdown"

        asyncio.run(go())
        assert not scheduler.running

    def test_stop_drains_queued_work(self):
        release = threading.Event()
        session = StubSession(release=release)
        scheduler = BatchScheduler(
            session,
            max_batch=2,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
        )

        async def go():
            await scheduler.start()
            futures = [
                asyncio.ensure_future(scheduler.submit(i)) for i in range(6)
            ]
            await asyncio.sleep(0.02)
            release.set()
            await asyncio.wait_for(scheduler.stop(), timeout=10.0)
            results = await asyncio.gather(*futures)
            assert [r.root for r in results] == list(range(6))

        asyncio.run(go())


class InjectedError(RuntimeError):
    """The batch failure the terminal-outcome property injects."""


class _KillSwitch:
    """Fault hook that crashes the dispatcher on the next ``armed``
    assembled batches (the ``faults=`` surface of the scheduler)."""

    def __init__(self) -> None:
        self.armed = 0

    def dispatcher_tick(self) -> None:
        if self.armed:
            self.armed -= 1
            raise InjectedError("injected dispatcher kill")

    def maybe_poison(self, result):
        return result


_SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(["new", "duplicate", "cached"]),
    st.sampled_from([None, 0.001, 10_000.0]),  # deadline_ms
)
_OPS = st.lists(
    st.one_of(
        _SUBMIT,
        st.sampled_from([("fail",), ("kill",), ("settle",), ("stop",)]),
    ),
    min_size=4,
    max_size=16,
).filter(lambda ops: ops.count(("kill",)) <= 2)


async def _run_ops(ops, resilience):
    """Play ``ops`` against a stub-backed scheduler; return it with
    every ``(source, task)`` submitted."""
    session = StubSession(failure=InjectedError)
    switch = _KillSwitch()
    scheduler = BatchScheduler(
        session,
        max_batch=4,
        max_wait_ms=0.0,
        result_cache=8,
        resilience=resilience,
        faults=switch,
    )
    await scheduler.start()
    submitted = []
    new_sources = iter(range(1000))
    for op in ops:
        if op == ("stop",):
            break
        if op[0] == "submit":
            _, which, deadline_ms = op
            pool = {
                "duplicate": [s for s, t in submitted if not t.done()],
                "cached": [
                    s for s, t in submitted
                    if t.done() and t.exception() is None
                ],
            }.get(which)
            source = pool[-1] if pool else next(new_sources)
            submitted.append((source, asyncio.ensure_future(
                scheduler.submit(source, deadline_ms=deadline_ms)
            )))
        elif op == ("fail",):
            session.fail_times += 1
        elif op == ("kill",):
            switch.armed += 1
        # Let the new submit reach the queue (or the cache) before the
        # next op; a settle also lets batches run.
        await asyncio.sleep(0.005 if op == ("settle",) else 0)
    await asyncio.wait_for(scheduler.stop(), timeout=10.0)
    await asyncio.wait_for(
        asyncio.gather(*(t for _, t in submitted), return_exceptions=True),
        timeout=10.0,
    )
    return scheduler, submitted


class TestTerminalOutcomeProperty:
    """Every submitted query ends in exactly one terminal outcome, on
    the policy-free path and under the default policy alike."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(ops=_OPS)
    def test_every_future_reaches_one_terminal_outcome(self, ops):
        for resilience in (None, ResiliencePolicy()):
            scheduler, submitted = asyncio.run(_run_ops(ops, resilience))
            for source, task in submitted:
                assert task.done()
                exc = task.exception()
                if exc is None:
                    assert task.result().root == source
                else:
                    assert isinstance(
                        exc,
                        (DeadlineExceededError, ServeOverloadError,
                         InjectedError),
                    ), repr(exc)
            assert scheduler.stats()["queries"] == len(submitted)


class TestPoisonDetection:
    def test_poisoned_cache_entry_is_dropped_and_recomputed(self):
        session = StubSession()
        cache = ResultCache(maxsize=8)
        scheduler = BatchScheduler(
            session,
            max_batch=4,
            result_cache=cache,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
        )
        cache.put(scheduler._key(4), StubResult(root=5))  # wrong root

        async def go():
            async with scheduler:
                result = await scheduler.submit(4)
                assert result.root == 4  # recomputed, not the poison

        asyncio.run(go())
        counts = scheduler.stats()["resilience"]["counts"]
        assert counts["poison_detected"] == 1
        assert (
            scheduler.metrics.counter(
                "serve.cache_poison_detected_total"
            ).value
            == 1
        )
        assert session.batches == [[4]]


class TestPreparedCacheBounds:
    def test_byte_bound_evicts(self):
        cluster = paper_cluster(nodes=1)
        service = BFSService(
            cache=PreparedGraphCache(maxsize=4, max_bytes=1),
            cluster=cluster,
        )
        g1 = rmat_graph(scale=10, edgefactor=4, seed=1)
        g2 = rmat_graph(scale=10, edgefactor=4, seed=2)
        service.session(g1)
        stats = service.prepared_stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        service.session(g2)  # over the byte bound: g1 is evicted
        assert service.prepared_stats()["entries"] == 1
        service.session(g1)
        assert service.prepared_stats()["misses"] == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            PreparedGraphCache(max_bytes=0)


class TestLoadgenAccounting:
    def test_deadline_expiry_is_tallied_not_raised(self):
        session = StubSession(delay_s=0.08)
        result = run_load(
            session,
            roots=[1, 2],
            max_batch=1,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
            deadline_ms=25.0,
        )
        # Query 1 rides the first batch; query 2 waits 80ms in the
        # queue, well past its 25ms deadline, and is shed at pickup.
        assert result.queries == 2
        assert result.deadline_expired == 1
        assert result.rejected == 0
        assert result.completed == 1
        doc = result.as_dict()
        assert doc["deadline_expired"] == 1 and doc["deadline_ms"] == 25.0

    def test_deadline_expiry_is_tallied_without_policy(self):
        result = run_load(
            StubSession(delay_s=0.08),
            roots=[1, 2],
            max_batch=1,
            max_wait_ms=0.0,
            result_cache=None,
            deadline_ms=25.0,
        )
        assert result.deadline_expired == 1
        assert result.completed == 1

    def test_deadline_validation(self):
        with pytest.raises(ConfigError):
            run_load(StubSession(), roots=[1], deadline_ms=0.0)

    def test_report_carries_resilience_block(self):
        session = StubSession(delay_s=0.08)
        result = run_load(
            session,
            roots=[1, 2],
            max_batch=1,
            max_wait_ms=0.0,
            result_cache=None,
            resilience=ResiliencePolicy(hedge=False, supervise=False),
            deadline_ms=25.0,
        )
        report = build_report({}, {}, result, {"hit_rate": 0.0})
        resil = report["resilience"]
        assert resil["deadline_expired"] == 1
        assert resil["deadline_ms"] == 25.0
        assert resil["policy"]["shed_policy"] == "reject"
        assert report["throughput"]["completed"] == 1

    def test_no_policy_report_has_none_block(self):
        session = StubSession()
        result = run_load(
            session, roots=[1], max_batch=1, result_cache=None
        )
        report = build_report({}, {}, result, {"hit_rate": 0.0})
        assert report["resilience"] is None


class TestSessionBoundaryValidation:
    """Satellite: every serve entry point rejects bad vertices with a
    structured error, not a numpy IndexError from inside the kernel."""

    @pytest.fixture(scope="class")
    def real_session(self):
        from repro.graph.rmat import rmat_graph

        service = BFSService(cluster=paper_cluster(nodes=1))
        return service.session(rmat_graph(scale=10, edgefactor=8, seed=5))

    def _assert_structured(self, err, bad, n):
        from repro.errors import GraphError

        assert isinstance(err, GraphError)
        assert err.context["vertex"] == bad
        assert err.context["num_vertices"] == n
        assert "out of range" in str(err)

    def test_session_run(self, real_session):
        from repro.errors import GraphError

        n = real_session.graph.num_vertices
        with pytest.raises(GraphError) as excinfo:
            real_session.run(n + 7)
        self._assert_structured(excinfo.value, n + 7, n)

    def test_session_run_negative(self, real_session):
        from repro.errors import GraphError

        n = real_session.graph.num_vertices
        with pytest.raises(GraphError) as excinfo:
            real_session.run(-1)
        self._assert_structured(excinfo.value, -1, n)

    def test_session_run_batch(self, real_session):
        from repro.errors import GraphError

        n = real_session.graph.num_vertices
        with pytest.raises(GraphError) as excinfo:
            real_session.run_batch([0, 1, n])
        self._assert_structured(excinfo.value, n, n)

    def test_scheduler_submit(self, real_session):
        from repro.errors import GraphError

        n = real_session.graph.num_vertices
        scheduler = BatchScheduler(
            real_session, max_batch=4, result_cache=None
        )

        async def go():
            async with scheduler:
                with pytest.raises(GraphError) as excinfo:
                    await scheduler.submit(n + 1)
                self._assert_structured(excinfo.value, n + 1, n)
                # The scheduler survives the rejection and still serves.
                result = await scheduler.submit(1)
                assert int(result.root) == 1

        asyncio.run(go())
