"""Admission scheduler: coalesce concurrent queries into batched scans.

Queries arrive one ``(source)`` at a time; the batched engine answers up
to 64 of them in one level-synchronous pass, one lane per source
(:mod:`repro.core.multisource`).  The scheduler bridges the two with a
classic admission queue:

* ``submit`` enqueues the query and parks the caller on a future;
* a dispatcher task collects up to ``max_batch`` queued queries,
  waiting at most ``max_wait`` for stragglers once the first arrives
  (the latency/throughput trade-off knobs);
* duplicate sources inside a window are *coalesced* — one lane serves
  every waiter — and completed answers land in a shared
  :class:`ResultCache` LRU so hot ``(graph, source)`` pairs skip the
  traversal entirely.

The batch itself runs in a worker thread (``run_in_executor``) so the
event loop keeps admitting queries while numpy crunches.  Correctness
is inherited, not re-argued: every result is the bit-identical
per-source product of :meth:`MultiSourceEngine.run_batch`, so batching
changes *when* a query is answered, never *what* the answer is.

**Request-scoped tracing**: when the scheduler carries a recording
:class:`~repro.obs.tracer.SpanTracer`, every submission gets a
``trace_id`` (``req-NNNNNN``).  The id is stamped on a retroactive
``serve.queue_wait`` span (enqueue → batch pickup, recorded once the
wait is known), on the batch's ``serve.batch_assembly`` span, and rides
into the engine's ``batch.run`` / ``batch.lane`` spans via the shared
``batch_id`` (the per-round ``level`` spans nest under ``batch.run``) —
one id links the whole queue → batch → engine chain in the trace export
(:func:`repro.obs.export.request_chain`).  With the default
``NULL_TRACER`` none of this happens: no ids, no timestamps, no spans —
the disabled hot path is the pre-tracing one.

**Deadlines** hold on every scheduler: a query still queued past its
``deadline_ms`` is shed at batch pickup
(``serve.shed_total{reason=deadline}``), and a batch whose waiters all
carry deadlines gets a cancel token that stops the engine between BFS
levels once the last of them passes.

**Resilience** (via a
:class:`~repro.serve.resilience.ResiliencePolicy`): a bounded admission
queue sheds overflow by policy (reject / drop-oldest / degrade);
straggling batches are hedged against a fresh session and failed
batches retried once; repeated failures per (graph, config) fingerprint
trip a circuit breaker that fast-fails with
:class:`~repro.errors.ServeOverloadError`; and a supervisor task
restarts a crashed dispatcher with bounded exponential backoff,
replaying un-acked queue entries exactly once.  ``resilience=None`` is
the all-off policy on the same path: unbounded queue, no hedge, no
retry, no breaker, no supervision.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import hashlib
import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.multisource import MAX_LANES
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ServeOverloadError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.serve.resilience import CancelToken, CircuitBreaker, ResiliencePolicy
from repro.util.lru import LRUCache

__all__ = ["BatchScheduler", "ResultCache"]

#: What ``resilience=None`` runs under: every mechanism off, deadlines
#: still honoured.
_ALL_OFF = ResiliencePolicy(
    hedge=False, retry_failed=False, breaker_threshold=0, supervise=False
)


def _estimate_result_nbytes(result) -> int:
    """Estimated resident size of one cached answer.

    A :class:`~repro.core.engine.BFSResult` is dominated by its parent
    array; everything else (counts, timing) is a small constant.  Stub
    results without arrays cost the constant alone.
    """
    parent = getattr(result, "parent", None)
    nbytes = getattr(parent, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + 256
    return 256


def _swallow(future) -> None:
    """Retrieve an abandoned racer's exception so asyncio stays quiet."""
    if not future.cancelled():
        future.exception()


class ResultCache(LRUCache):
    """Thread-safe LRU of completed BFS answers.

    Keyed by ``(graph digest, source, config identity)`` so one cache
    can safely back several sessions; results are immutable
    :class:`~repro.core.engine.BFSResult` objects and are shared, not
    copied.

    Beyond the entry-count bound, ``max_bytes`` optionally bounds the
    *estimated* resident bytes (parent arrays dominate), so degrade-mode
    stale serving cannot grow memory without limit.  ``ttl_s`` declares
    when an entry stops being fresh: :meth:`get` then treats older
    entries as misses, while :meth:`get_stale` (the degrade path) still
    serves them — explicitly marked — up to ``max_age_s``.
    """

    def __init__(
        self,
        maxsize: int = 256,
        max_bytes: int | None = None,
        ttl_s: float | None = None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(
            maxsize, max_bytes, ttl_s, clock,
            sizeof=_estimate_result_nbytes, name="result cache",
        )


@dataclass
class _Query:
    """One admitted query waiting for (or riding) a batch."""

    source: int
    future: asyncio.Future
    trace_id: str | None = None
    enqueue_ns: int = 0
    #: ``time.monotonic()`` timestamp the caller stops caring; ``None``
    #: = no deadline.
    deadline: float | None = None
    #: Already replayed once across a dispatcher restart — a second
    #: loss rejects instead of replaying again (exactly-once replay).
    replayed: bool = field(default=False, compare=False)


class BatchScheduler:
    """Asyncio admission queue in front of one :class:`GraphSession`.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`); ``submit`` may then be awaited from any number of
    concurrent tasks.  The scheduler serializes batches — the session's
    engine is not thread-safe — but admission, coalescing and the result
    cache keep concurrency cheap.

    ``resilience`` (a :class:`ResiliencePolicy`) switches on load
    shedding, hedged retries, the circuit breaker and dispatcher
    supervision; ``None`` runs the same path with all of them off.
    ``faults`` accepts a
    :class:`~repro.faults.serveinject.ServeFaultInjector` whose
    dispatcher-kill and cache-poison hooks the chaos campaign drives.
    """

    def __init__(
        self,
        session,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        result_cache: ResultCache | int | None = 256,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        resilience: ResiliencePolicy | None = None,
        faults=None,
    ) -> None:
        if not 1 <= max_batch <= MAX_LANES:
            raise ConfigError(
                f"max_batch must be in [1, {MAX_LANES}], got {max_batch}"
            )
        if max_wait_ms < 0:
            raise ConfigError("max_wait_ms must be >= 0")
        self.session = session
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1e3
        if isinstance(result_cache, ResultCache):
            self.results = result_cache
        elif result_cache is None:
            self.results = None
        else:
            self.results = ResultCache(maxsize=int(result_cache))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = session.tracer
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resilience = resilience or _ALL_OFF
        self.queries = 0
        self.batches = 0
        self.batched_queries = 0
        self.coalesced = 0
        self._in_flight = 0
        self._trace_seq = itertools.count()
        self._batch_seq = itertools.count()
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        # Config identity for result-cache keys shared across sessions.
        self._config_key = repr(session.config)
        # ---- resilience state ----
        self._faults = faults
        # Breaker key: graph digest, config label and a short hash of
        # the full config, readable in every report's breaker snapshot.
        config_hash = hashlib.sha256(self._config_key.encode()).hexdigest()
        self._fingerprint = (
            f"{session.digest}/{session.config.label}/{config_hash[:8]}"
        )
        self._breaker = CircuitBreaker(
            self.resilience.breaker_threshold,
            self.resilience.breaker_cooldown_s,
        )
        self._resil_counts: collections.Counter = collections.Counter()
        self._degraded = False
        self._supervisor: asyncio.Task | None = None
        self._crash_streak = 0
        self._failed_exc: BaseException | None = None
        self._stopping = False
        self._unacked: list[_Query] = []

    # ---- lifecycle -------------------------------------------------------

    async def start(self) -> "BatchScheduler":
        """Start the dispatcher task (idempotent)."""
        if self._task is None:
            self._queue = asyncio.Queue()
            self._stopping = False
            self._failed_exc = None
            self._crash_streak = 0
            loop = asyncio.get_running_loop()
            self._task = loop.create_task(self._dispatch())
            if self.resilience.supervise:
                self._supervisor = loop.create_task(self._supervise())
        return self

    async def stop(self) -> None:
        """Drain the admission queue, then cancel the dispatcher.

        Every still-pending future gets a terminal result: queued work
        is either processed by the (live) dispatcher or — when the
        dispatcher is dead or dies mid-drain — rejected with a
        structured :class:`ServeOverloadError` instead of hanging.
        """
        if self._task is None:
            return
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        task = self._task
        if task.done():
            self._reject_pending("scheduler stopped with dispatcher down")
        else:
            join = asyncio.get_running_loop().create_task(self._queue.join())
            done, _ = await asyncio.wait(
                {join, task}, return_when=asyncio.FIRST_COMPLETED
            )
            if join not in done:
                # The dispatcher died mid-drain; nothing will ever
                # finish the queue — reject the leftovers.
                join.cancel()
                try:
                    await join
                except asyncio.CancelledError:
                    pass
                self._reject_pending("dispatcher died while draining")
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        except Exception:
            pass  # crash already surfaced via health()/rejections
        self._task = None
        self._queue = None
        self._stopping = False
        self._set_degraded(False)

    def _reject_pending(self, message: str) -> None:
        """Reject every un-acked and still-queued query (stop path)."""
        unacked, self._unacked = self._unacked, []
        pending = list(unacked)
        if self._queue is not None:
            while True:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
                self._queue.task_done()
        for q in pending:
            if not q.future.done():
                q.future.set_exception(
                    ServeOverloadError(
                        message, reason="shutdown", source=q.source
                    )
                )
                self.metrics.counter(
                    "serve.shed_total", reason="shutdown"
                ).inc()

    async def __aenter__(self) -> "BatchScheduler":
        """``async with`` support: start on entry."""
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """``async with`` support: drain and stop on exit."""
        await self.stop()

    # ---- supervision -----------------------------------------------------

    async def _supervise(self) -> None:
        """Restart a crashed dispatcher with bounded exponential backoff.

        Un-acked queue entries (picked up but not resolved when the
        dispatcher died) are replayed exactly once; a query lost twice
        is rejected with ``reason=replay_exhausted``.  After
        ``max_restarts`` consecutive crashes (a completed batch resets
        the streak) the supervisor gives up and fails every pending
        query.
        """
        policy = self.resilience
        backoff = policy.restart_backoff_s
        while True:
            task = self._task
            if task is None:
                return
            try:
                await asyncio.wait({task})
            except asyncio.CancelledError:
                return
            if self._stopping or task.cancelled():
                return
            exc = task.exception()
            if exc is None:  # pragma: no cover - the loop is infinite
                return
            self._crash_streak += 1
            if self._crash_streak == 1:
                backoff = policy.restart_backoff_s
            if self._crash_streak > policy.max_restarts:
                self._failed_exc = exc
                self._reject_pending(
                    "dispatcher failed permanently "
                    f"({self._crash_streak} consecutive crashes)"
                )
                return
            self._resil_counts["restarts"] += 1
            self.metrics.counter("serve.dispatcher_restarts_total").inc()
            try:
                await asyncio.sleep(backoff)
            except asyncio.CancelledError:
                return
            backoff = min(backoff * 2.0, policy.restart_backoff_max_s)
            self._replay_unacked()
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch()
            )

    def _replay_unacked(self) -> None:
        """Re-enqueue queries the dead dispatcher had picked up.

        Each entry was ``get()``-ed without a matching ``task_done()``;
        balancing that here keeps ``queue.join()`` (the stop path)
        consistent.  Replay happens at most once per query.
        """
        unacked, self._unacked = self._unacked, []
        for q in unacked:
            self._queue.task_done()
            if q.future.done():
                continue
            if q.replayed:
                q.future.set_exception(
                    ServeOverloadError(
                        "query lost twice across dispatcher restarts",
                        reason="replay_exhausted",
                        source=q.source,
                    )
                )
                self.metrics.counter(
                    "serve.shed_total", reason="replay_exhausted"
                ).inc()
                continue
            q.replayed = True
            self._resil_counts["replayed"] += 1
            self.metrics.counter("serve.replayed_total").inc()
            self._queue.put_nowait(q)

    # ---- the query path --------------------------------------------------

    def _key(self, source: int) -> tuple:
        return (self.session.digest, int(source), self._config_key)

    def _set_degraded(self, flag: bool) -> None:
        if flag == self._degraded:
            return
        self._degraded = flag
        self.metrics.gauge("serve.degraded").set(1.0 if flag else 0.0)
        if flag:
            self._resil_counts["degrade_entries"] += 1

    def _shed(self, reason: str, message: str, **context):
        """Count one shed and build its structured rejection."""
        self.metrics.counter("serve.shed_total", reason=reason).inc()
        self._resil_counts[f"shed_{reason}"] += 1
        return ServeOverloadError(message, reason=reason, **context)

    def _admit(self, source: int) -> None:
        """Admission control: bounded queue + shed policy + breaker.

        Raises the structured rejection for the *caller's* query
        (reject policy, open breaker); the drop-oldest policy instead
        rejects the queue's oldest waiter and admits the newcomer.
        """
        policy = self.resilience
        if not self._breaker.allow(self._fingerprint):
            self.metrics.counter("serve.errors_total").inc()
            raise self._shed(
                "circuit_open",
                "circuit breaker open for this graph/config",
                digest=self.session.digest,
            )
        if policy.max_queue_depth is None:
            return
        depth = self._queue.qsize()
        if depth < policy.max_queue_depth:
            return
        if policy.shed_policy == "reject":
            self.metrics.counter("serve.errors_total").inc()
            raise self._shed(
                "queue_full",
                "admission queue full",
                queue_depth=depth,
                max_queue_depth=policy.max_queue_depth,
            )
        if policy.shed_policy == "drop-oldest":
            try:
                victim = self._queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - raced drain
                return
            self._queue.task_done()
            if not victim.future.done():
                victim.future.set_exception(
                    self._shed(
                        "shed",
                        "evicted from the admission queue by newer work",
                        source=victim.source,
                        queue_depth=depth,
                    )
                )
            return
        # degrade: admit, but flip into degraded operation.
        self._set_degraded(True)

    async def submit(self, source: int, deadline_ms: float | None = None):
        """Answer one query; parks until its batch completes.

        Returns the :class:`~repro.core.engine.BFSResult` for
        ``source`` — bit-identical to a sequential single-source run.
        ``deadline_ms`` bounds how long the caller will wait, with or
        without a :class:`ResiliencePolicy`: a query still queued past
        its deadline is rejected with :class:`DeadlineExceededError`,
        and an in-flight batch whose waiters all expired cancels
        between BFS levels.
        """
        if self._task is None:
            raise ConfigError(
                "scheduler is not running; use 'async with scheduler:' "
                "or await scheduler.start() first"
            )
        self.queries += 1
        self.metrics.counter("serve.requests_total").inc()
        t0 = time.perf_counter()
        tracer = self.tracer
        trace_on = tracer.enabled and not self._degraded
        trace_id = f"req-{next(self._trace_seq):06d}" if trace_on else None
        if self.results is not None:
            cached = self.results.get(self._key(source))
            if cached is not None and self._poisoned(source, cached):
                cached = None
            if cached is not None:
                self.metrics.counter("serve.result_cache.hits").inc()
                self.metrics.histogram("serve.latency_ms").observe(
                    (time.perf_counter() - t0) * 1e3
                )
                if trace_on:
                    tracer.instant(
                        "serve.cache_hit",
                        cat="request",
                        trace_id=trace_id,
                        source=int(source),
                    )
                return cached
            self.metrics.counter("serve.result_cache.misses").inc()
            if self._degraded:
                stale = self.results.get_stale(
                    self._key(source),
                    max_age_s=self.resilience.degrade_stale_ttl_s,
                )
                if stale is not None:
                    result, _age, _ = stale
                    if not self._poisoned(source, result):
                        self._resil_counts["stale_served"] += 1
                        self.metrics.counter(
                            "serve.stale_served_total"
                        ).inc()
                        self.metrics.histogram("serve.latency_ms").observe(
                            (time.perf_counter() - t0) * 1e3
                        )
                        return result
        self._admit(source)
        deadline = (
            time.monotonic() + float(deadline_ms) / 1e3
            if deadline_ms is not None
            else None
        )
        future = asyncio.get_running_loop().create_future()
        enqueue_ns = time.perf_counter_ns() if trace_on else 0
        await self._queue.put(
            _Query(int(source), future, trace_id, enqueue_ns, deadline)
        )
        self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        try:
            result = await future
        except Exception:
            self.metrics.counter("serve.errors_total").inc()
            raise
        self.metrics.histogram("serve.latency_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return result

    def _poisoned(self, source: int, result) -> bool:
        """Detect (and drop) a corrupted cache entry before serving it.

        A cached answer whose ``root`` disagrees with the queried source
        cannot be right — the serve-chaos cache-poison fault produces
        exactly that shape.  Detection costs one ``getattr`` per cache
        hit; results without a ``root`` attribute (test stubs) are
        trusted as-is.
        """
        root = getattr(result, "root", None)
        if root is None or int(root) == int(source):
            return False
        self.results.invalidate(self._key(source))
        self._resil_counts["poison_detected"] += 1
        self.metrics.counter("serve.cache_poison_detected_total").inc()
        return True

    def _effective_max_batch(self) -> int:
        if self._degraded:
            return min(self.max_batch, self.resilience.degrade_max_batch)
        return self.max_batch

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        policy = self.resilience
        while True:
            first = await self._queue.get()
            batch = [first]
            limit = self._effective_max_batch()
            deadline = loop.time() + self.max_wait
            while len(batch) < limit:
                try:
                    # Already-queued work joins the batch without waiting.
                    batch.append(self._queue.get_nowait())
                    continue
                except asyncio.QueueEmpty:
                    pass
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), remaining
                    )
                except asyncio.TimeoutError:
                    break
                batch.append(item)
            self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
            batch = self._drop_expired(batch)
            if not batch:
                continue
            self._unacked = batch
            if self._faults is not None:
                # The injected dispatcher kill: raising here crashes
                # the dispatcher task with the batch un-acked, which is
                # exactly what supervision + replay must absorb.
                self._faults.dispatcher_tick()
            await self._run_batch(loop, batch)
            for _ in batch:
                self._queue.task_done()
            self._unacked = []
            if (
                self._degraded
                and policy.shed_policy == "degrade"
                and self._queue.qsize()
                <= max(1, (policy.max_queue_depth or 2) // 2)
            ):
                self._set_degraded(False)

    def _drop_expired(self, batch: list) -> list:
        """Reject queries whose deadline passed while they queued."""
        now = time.monotonic()
        keep = []
        for q in batch:
            if q.deadline is not None and now >= q.deadline:
                self._queue.task_done()
                self.metrics.counter(
                    "serve.shed_total", reason="deadline"
                ).inc()
                self._resil_counts["shed_deadline"] += 1
                if not q.future.done():
                    q.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired in the admission queue",
                            source=q.source,
                        )
                    )
            else:
                keep.append(q)
        return keep

    async def _run_batch(self, loop, batch) -> None:
        # Coalesce duplicate sources: one lane answers every waiter.
        # Each lane carries every coalesced waiter's trace_id so the
        # trace stays complete under coalescing.
        waiters: OrderedDict[int, list] = OrderedDict()
        traces: OrderedDict[int, list] = OrderedDict()
        for q in batch:
            waiters.setdefault(q.source, []).append(q.future)
            traces.setdefault(q.source, []).append(q.trace_id)
        sources = list(waiters)
        self.batches += 1
        self.batched_queries += len(batch)
        self.coalesced += len(batch) - len(sources)
        self.metrics.histogram("serve.batch_size").observe(len(sources))
        tracer = self.tracer
        trace_ids = batch_id = token = None
        # Degrade mode skips trace recording — one less cost under
        # pressure, and the ids were never issued at submit anyway.
        if tracer.enabled and not self._degraded:
            batch_id = f"batch-{next(self._batch_seq):05d}"
            now_ns = time.perf_counter_ns()
            for q in batch:
                # The wait is only known at pickup — record it
                # retroactively, linked by trace_id and batch_id.
                tracer.record_span(
                    "serve.queue_wait",
                    cat="request",
                    start_ns=q.enqueue_ns,
                    end_ns=now_ns,
                    trace_id=q.trace_id,
                    source=int(q.source),
                    batch_id=batch_id,
                )
            tracer.record_span(
                "serve.batch_assembly",
                cat="serve",
                start_ns=min(q.enqueue_ns for q in batch),
                end_ns=now_ns,
                batch_id=batch_id,
                sources=list(sources),
                trace_ids=[t for ts in traces.values() for t in ts],
            )
            trace_ids = [tuple(traces[s]) for s in sources]
        if all(q.deadline is not None for q in batch):
            # Cooperative cancellation: once every waiter's deadline
            # passed, the engine stops between BFS levels.
            token = CancelToken(deadline=max(q.deadline for q in batch))
        run = functools.partial(
            self.session.run_batch,
            sources,
            trace_ids=trace_ids,
            batch_id=batch_id,
            cancel=token,
        )
        self._in_flight += 1
        self.metrics.gauge("serve.inflight_batches").set(self._in_flight)
        t0 = time.perf_counter()
        try:
            results = await self._execute(loop, run, sources)
        except Exception as exc:  # propagate to every waiter
            for futures in waiters.values():
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
            return
        finally:
            self._in_flight -= 1
            self.metrics.gauge("serve.inflight_batches").set(self._in_flight)
        self.metrics.histogram("serve.batch_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        self._crash_streak = 0
        for source, result in zip(sources, results):
            if self.results is not None:
                cached = result
                if self._faults is not None:
                    cached = self._faults.maybe_poison(result)
                self.results.put(self._key(source), cached)
            for future in waiters[source]:
                if not future.done():
                    future.set_result(result)

    # ---- hedged execution ------------------------------------------------

    def _hedge_threshold_s(self) -> float | None:
        """Seconds after which a running batch counts as straggling.

        The configured percentile of the ``serve.batch_ms`` history
        (floored at ``hedge_min_ms``); ``None`` until ``hedge_warmup``
        batches have completed, so cold starts are never hedged.
        """
        policy = self.resilience
        hist = self.metrics.histogram("serve.batch_ms")
        if hist.count < policy.hedge_warmup:
            return None
        threshold_ms = max(
            hist.percentile(policy.hedge_percentile), policy.hedge_min_ms
        )
        return threshold_ms / 1e3

    async def _execute(self, loop, run, sources):
        """Run one batch with hedging, retry-once and breaker updates."""
        policy = self.resilience
        key = self._fingerprint
        primary = loop.run_in_executor(None, run)
        threshold_s = self._hedge_threshold_s() if policy.hedge else None
        if threshold_s is not None:
            done, _ = await asyncio.wait({primary}, timeout=threshold_s)
            if not done:
                self._resil_counts["hedges"] += 1
                self.metrics.counter("serve.hedge_total").inc()
                hedge_session = self.session.fresh()
                hedge = loop.run_in_executor(
                    None,
                    functools.partial(hedge_session.run_batch, list(sources)),
                )
                return await self._race(primary, hedge, hedge_session, key)
        try:
            results = await primary
        except asyncio.CancelledError:
            raise
        except DeadlineExceededError:
            # A cooperative cancel is the deadline working, not the
            # session failing — the breaker must not count it.
            raise
        except Exception:
            if not policy.retry_failed:
                self._record_failure(key)
                raise
            self._resil_counts["retries"] += 1
            self.metrics.counter("serve.retry_total").inc()
            retry_session = self.session.fresh()
            try:
                results = await loop.run_in_executor(
                    None,
                    functools.partial(retry_session.run_batch, list(sources)),
                )
            except Exception:
                self._record_failure(key)
                raise
        self._breaker.record_success(key)
        return results

    async def _race(self, primary, hedge, hedge_session, key):
        """First successful completion of primary vs hedge wins.

        The loser keeps running in the executor (thread pools cannot be
        preempted); its eventual result or exception is discarded.  When
        the hedge wins while the primary still runs, the hedge session
        is *adopted* as the scheduler's primary — the abandoned run
        still owns the old session's engine, which is not safe for
        concurrent batches.
        """
        pending = {primary, hedge}
        last_exc: BaseException | None = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for fut in sorted(done, key=lambda f: f is hedge):
                try:
                    results = fut.result()
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    last_exc = exc
                    continue
                if fut is hedge:
                    self._resil_counts["hedge_wins"] += 1
                    self.metrics.counter("serve.hedge_wins_total").inc()
                    if primary in pending:
                        self.session = hedge_session
                for loser in pending:
                    loser.add_done_callback(_swallow)
                self._breaker.record_success(key)
                return results
        self._record_failure(key)
        raise last_exc

    def _record_failure(self, key) -> None:
        self._resil_counts["batch_failures"] += 1
        self._breaker.record_failure(key)

    # ---- reporting -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for a batch (0 when stopped)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def in_flight(self) -> int:
        """Batches currently running in the executor."""
        return self._in_flight

    @property
    def degraded(self) -> bool:
        """Whether degrade-mode shedding is currently active."""
        return self._degraded

    @property
    def running(self) -> bool:
        """Whether the dispatcher task is alive."""
        return self._task is not None and not self._task.done()

    def health(self) -> tuple[bool, dict]:
        """Liveness probe for the ops server's ``/healthz``.

        Healthy while idle (not yet started, or cleanly stopped) and
        while the dispatcher runs; a supervised dispatcher that crashed
        and awaits restart reports *healthy-but-degraded* (the
        ``degraded`` → ``healthy`` transition the ops server surfaces);
        unhealthy only when the dispatcher is dead for good — crashed
        unsupervised, exited, or the supervisor gave up.
        """
        task = self._task
        if task is None:
            return True, {"state": "idle"}
        if self._failed_exc is not None:
            return False, {
                "state": "failed",
                "error": repr(self._failed_exc),
                "restarts": self._resil_counts.get("restarts", 0),
            }
        if not task.done():
            detail = {
                "state": "running",
                "queue_depth": self.queue_depth,
                "in_flight": self.in_flight,
            }
            if self._degraded:
                detail["state"] = "degraded"
                detail["degrade_mode"] = True
            return True, detail
        if task.cancelled():
            return True, {"state": "stopped"}
        exc = task.exception()
        if self._supervisor is not None and not self._supervisor.done():
            return True, {
                "state": "degraded",
                "restarting": True,
                "error": repr(exc) if exc is not None else None,
                "restarts": self._resil_counts.get("restarts", 0),
            }
        if exc is not None:
            return False, {"state": "crashed", "error": repr(exc)}
        return False, {"state": "exited"}

    def stats(self) -> dict:
        """Admission/batching counters (plus result-cache stats)."""
        out = {
            "queries": self.queries,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "coalesced": self.coalesced,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "mean_batch_size": (
                self.batched_queries / self.batches if self.batches else 0.0
            ),
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait * 1e3,
            "result_cache": (
                self.results.stats() if self.results is not None else None
            ),
        }
        # The report contract: no resilience block without a policy.
        out["resilience"] = None if self.resilience is _ALL_OFF else {
            "policy": self.resilience.as_dict(),
            "degraded": self._degraded,
            "counts": dict(self._resil_counts),
            "breaker": self._breaker.snapshot(),
        }
        return out
