"""Request-layer resilience policy for the serving stack.

The scheduler (:class:`~repro.serve.scheduler.BatchScheduler`) is a
correct-but-optimistic admission queue: left alone it queues without
bound, waits forever on a wedged session, and dies permanently when the
dispatcher task crashes.  This module holds the policy objects that turn
it into a production-shaped service:

* :class:`ResiliencePolicy` — one frozen bundle of knobs: admission
  bounds and the shed policy (``reject`` / ``drop-oldest`` /
  ``degrade``), hedged-retry thresholds, circuit-breaker limits, and
  dispatcher-supervision backoff;
* :class:`CancelToken` — a deadline-carrying cooperative cancellation
  token.  The batched engine (:mod:`repro.core.multisource`) calls
  ``token.check()`` between BFS levels, so an in-flight batch whose
  waiters have all timed out stops traversing instead of finishing work
  nobody will read;
* :class:`CircuitBreaker` — consecutive-failure counting per
  ``(graph digest, config)`` fingerprint with a cooldown, so a
  persistently failing session fast-fails new queries with a structured
  :class:`~repro.errors.ServeOverloadError` instead of queueing them
  into a known-bad batch.

Everything here is policy and bookkeeping — no asyncio, no threads.
The mechanisms live in the scheduler, which has one path: without a
policy it runs under an all-off one (unbounded queue, no hedge, no
retry, a zero-threshold breaker, no supervision).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields

from repro.errors import ConfigError, DeadlineExceededError

__all__ = [
    "SHED_POLICIES",
    "CancelToken",
    "CircuitBreaker",
    "ResiliencePolicy",
]

#: Admission-control behaviours when the bounded queue is full.
SHED_POLICIES = ("reject", "drop-oldest", "degrade")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every serving-resilience knob, validated once at construction.

    The defaults describe a service that sheds by rejecting, hedges
    stragglers at the p99 of recent batch durations (but never below
    ``hedge_min_ms``), retries a failed batch once on a fresh session,
    trips the breaker after three consecutive batch failures, and
    supervises the dispatcher with bounded exponential backoff.
    """

    #: Queued queries admitted before the shed policy kicks in
    #: (``None`` = unbounded).
    max_queue_depth: int | None = None
    #: What to do with the overflow: ``reject`` the newcomer,
    #: ``drop-oldest`` from the queue, or enter ``degrade`` mode.
    shed_policy: str = "reject"
    #: Lane cap while degraded (effective ``max_batch`` becomes
    #: ``min(max_batch, degrade_max_batch)``).
    degrade_max_batch: int = 8
    #: How stale a cached result may be and still be served (with a
    #: ``stale`` marker) while degraded.  ``None`` = serve any age.
    degrade_stale_ttl_s: float | None = None

    #: Hedge a straggling batch against a fresh session.
    hedge: bool = True
    #: Percentile of recent batch durations that defines "straggling".
    hedge_percentile: float = 99.0
    #: Floor under the hedge threshold — never hedge sooner than this.
    hedge_min_ms: float = 50.0
    #: Completed batches required before the percentile is trusted.
    hedge_warmup: int = 8
    #: Retry a *failed* batch once against a fresh session.
    retry_failed: bool = True

    #: Consecutive batch failures per fingerprint that open the breaker
    #: (0 disables the breaker).
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before allowing a probe batch.
    breaker_cooldown_s: float = 5.0

    #: Restart a crashed dispatcher instead of staying dead.
    supervise: bool = True
    #: First restart delay; doubled per consecutive crash.
    restart_backoff_s: float = 0.05
    #: Backoff ceiling.
    restart_backoff_max_s: float = 2.0
    #: Consecutive crashes tolerated before the supervisor gives up.
    max_restarts: int = 5

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {SHED_POLICIES}, got "
                f"{self.shed_policy!r}"
            )
        if self.degrade_max_batch < 1:
            raise ConfigError("degrade_max_batch must be >= 1")
        if not 0.0 < self.hedge_percentile <= 100.0:
            raise ConfigError(
                f"hedge_percentile must be in (0, 100], got "
                f"{self.hedge_percentile}"
            )
        if self.hedge_min_ms < 0:
            raise ConfigError("hedge_min_ms must be >= 0")
        if self.hedge_warmup < 1:
            raise ConfigError("hedge_warmup must be >= 1")
        if self.breaker_threshold < 0:
            raise ConfigError("breaker_threshold must be >= 0")
        if self.breaker_cooldown_s <= 0:
            raise ConfigError("breaker_cooldown_s must be positive")
        if self.restart_backoff_s <= 0 or (
            self.restart_backoff_max_s < self.restart_backoff_s
        ):
            raise ConfigError(
                "need 0 < restart_backoff_s <= restart_backoff_max_s"
            )
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")

    def as_dict(self) -> dict:
        """The policy as a plain JSON-serializable dict (for reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CancelToken:
    """Cooperative cancellation with an optional deadline.

    The issuing side calls :meth:`cancel` (or sets ``deadline``, a
    ``clock()`` timestamp); the working side calls :meth:`check` at
    safe points — the batched engine does so between BFS levels — and
    gets a structured :class:`DeadlineExceededError` once the token has
    fired.  Thread-safe: the scheduler cancels from the event loop while
    the engine checks from an executor thread.
    """

    def __init__(self, deadline: float | None = None, *,
                 clock=time.monotonic) -> None:
        self.deadline = deadline
        self.clock = clock
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        """Fire the token (idempotent)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` ran or the deadline passed."""
        if self._cancelled.is_set():
            return True
        if self.deadline is not None and self.clock() >= self.deadline:
            self._cancelled.set()
            return True
        return False

    @property
    def remaining(self) -> float | None:
        """Seconds until the deadline (None without one, min 0.0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the token fired."""
        if self.cancelled:
            raise DeadlineExceededError(
                "query cancelled mid-traversal", where=where or None
            )


class CircuitBreaker:
    """Consecutive-failure breaker keyed by an opaque fingerprint.

    Classic three-state behaviour per key: *closed* (all traffic flows)
    until ``threshold`` consecutive failures, then *open* (``allow``
    returns False) for ``cooldown_s``, then *half-open* — one probe is
    let through; its success closes the breaker, its failure re-opens
    the cooldown.  A zero threshold disables the breaker entirely.
    Thread-safe, clock injectable for tests.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 5.0, *,
                 clock=time.monotonic) -> None:
        if threshold < 0:
            raise ConfigError("breaker threshold must be >= 0")
        if cooldown_s <= 0:
            raise ConfigError("breaker cooldown must be positive")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.clock = clock
        self._lock = threading.Lock()
        #: key -> [consecutive_failures, opened_at | None, probing]
        self._keys: dict = {}
        self.trips = 0
        self.fast_fails = 0

    def _entry(self, key):
        return self._keys.setdefault(key, [0, None, False])

    def state(self, key) -> str:
        """``closed`` / ``open`` / ``half-open`` for ``key``."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None or entry[1] is None:
                return "closed"
            if self.clock() - entry[1] >= self.cooldown_s:
                return "half-open"
            return "open"

    def allow(self, key) -> bool:
        """Whether a query for ``key`` may proceed right now."""
        if self.threshold == 0:
            return True
        with self._lock:
            entry = self._keys.get(key)
            if entry is None or entry[1] is None:
                return True
            if self.clock() - entry[1] < self.cooldown_s:
                self.fast_fails += 1
                return False
            # Half-open: admit a single probe; everyone else keeps
            # fast-failing until the probe reports back.
            if entry[2]:
                self.fast_fails += 1
                return False
            entry[2] = True
            return True

    def record_success(self, key) -> None:
        """A batch for ``key`` completed — close the breaker."""
        if self.threshold == 0:
            return
        with self._lock:
            self._keys[key] = [0, None, False]

    def record_failure(self, key) -> None:
        """A batch for ``key`` failed — maybe trip the breaker."""
        if self.threshold == 0:
            return
        with self._lock:
            entry = self._entry(key)
            entry[0] += 1
            entry[2] = False
            if entry[0] >= self.threshold and entry[1] is None:
                entry[1] = self.clock()
                self.trips += 1
            elif entry[1] is not None:
                # A failed half-open probe restarts the cooldown.
                entry[1] = self.clock()

    def snapshot(self) -> dict:
        """Trip/fast-fail counters plus per-key states (for reports)."""
        with self._lock:
            keys = list(self._keys)
        return {
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "trips": self.trips,
            "fast_fails": self.fast_fails,
            "states": {str(k): self.state(k) for k in keys},
        }
