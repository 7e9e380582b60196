"""Deterministic fault injection for the serving stack.

The simulator injector (:mod:`repro.faults.injector`) lives inside one
traversal; this module injects faults *around* traversals, at the
seams the serving scheduler actually has: the session call, the
dispatcher loop, and the result cache.  A
:class:`ServeFaultInjector` consumes the ``serve`` specs of a
:class:`~repro.faults.plan.FaultPlan` and fires them off deterministic
per-hook counters — the N-th session batch, the N-th dispatched batch,
the N-th cached result since :meth:`ServeFaultInjector.arm` — so a
seeded chaos campaign replays the identical fault schedule every run.

Wiring: wrap the scheduler's session in :meth:`wrap_session` (session
errors and stragglers), hand the injector to
:class:`~repro.serve.scheduler.BatchScheduler` via its ``faults``
parameter (dispatcher kills via ``dispatcher_tick``, cache poison via
``maybe_poison``), and read :attr:`events` for the chaos report.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.errors import FaultError
from repro.faults.injector import FaultEvent
from repro.faults.plan import FaultPlan

__all__ = ["FaultySession", "ServeFaultInjector"]


class ServeFaultInjector:
    """Runtime view of a plan's serving-scoped faults.

    Each injection hook keeps its own batch counter, reset together by
    :meth:`arm` — the chaos campaign arms at the injection-phase
    boundary so ``at_batch`` counts batches *into the phase*, not since
    process start.  Thread-safe: hooks fire from the event loop and
    from executor threads.
    """

    def __init__(
        self, plan: FaultPlan, sleep=time.sleep, armed: bool = False
    ) -> None:
        self.plan = plan
        self.sleep = sleep
        self.events: list[FaultEvent] = []
        self._lock = threading.Lock()
        self._armed = bool(armed)
        self._session_seq = 0
        self._dispatch_seq = 0
        self._poison_seq = 0

    @property
    def armed(self) -> bool:
        """Whether the hooks are live (they no-op until armed)."""
        return self._armed

    def arm(self) -> None:
        """Go live and reset every hook counter (phase boundary).

        Until the first ``arm()`` the injector observes but never
        fires, so a campaign's clean baseline phase can share the
        wired-up scheduler with the injection phase.
        """
        with self._lock:
            self._armed = True
            self._session_seq = 0
            self._dispatch_seq = 0
            self._poison_seq = 0

    def disarm(self) -> None:
        """Stop firing (recovery phase); counters keep their values."""
        with self._lock:
            self._armed = False

    def _specs(self, *kinds):
        return [s for s in self.plan.serve if s.kind in kinds]

    def _record(self, spec, seq: int, **detail) -> None:
        with self._lock:
            self.events.append(
                FaultEvent(
                    kind=f"serve-{spec.kind}",
                    level=0,
                    seq=seq,
                    detail={"scope": "serve", **detail},
                )
            )

    def wrap_session(self, session) -> "FaultySession":
        """The session proxy that injects session-level faults."""
        return FaultySession(session, self)

    # ---- hooks (called by the scheduler / session proxy) ----------------

    def session_tick(self, batch_size: int) -> None:
        """One session batch is about to run; maybe delay or fail it.

        A ``straggler`` spec sleeps ``delay_s`` in the calling (executor)
        thread — exactly what a wedged NUMA node looks like to the
        scheduler — and a ``session-error`` spec raises
        :class:`FaultError` in its place.
        """
        with self._lock:
            if not self._armed:
                return
            seq = self._session_seq
            self._session_seq += 1
        for spec in self._specs("straggler"):
            if spec.fires_at(seq):
                self._record(spec, seq, delay_s=spec.delay_s,
                             batch_size=batch_size)
                self.sleep(spec.delay_s)
        for spec in self._specs("session-error"):
            if spec.fires_at(seq):
                self._record(spec, seq, batch_size=batch_size)
                raise FaultError(
                    "injected session failure",
                    kind="session-error",
                    attempt=seq,
                )

    def dispatcher_tick(self) -> None:
        """One batch was assembled; maybe crash the dispatcher.

        Raising here — after pickup, before the batch runs — leaves the
        batch un-acked, which is precisely the state dispatcher
        supervision and exactly-once replay must absorb.
        """
        with self._lock:
            if not self._armed:
                return
            seq = self._dispatch_seq
            self._dispatch_seq += 1
        for spec in self._specs("dispatcher-kill"):
            if spec.fires_at(seq):
                self._record(spec, seq)
                raise FaultError(
                    "injected dispatcher kill",
                    kind="dispatcher-kill",
                    attempt=seq,
                )

    def maybe_poison(self, result):
        """Possibly corrupt the copy of ``result`` headed for the cache.

        Returns a *new* result object with a wrong ``root`` (the shared
        original handed to waiters is never mutated); results without a
        ``root`` field pass through untouched.  The scheduler's poison
        detection must catch the mismatch on the next cache hit.
        """
        with self._lock:
            if not self._armed:
                return result
            seq = self._poison_seq
            self._poison_seq += 1
        for spec in self._specs("cache-poison"):
            if spec.fires_at(seq):
                root = getattr(result, "root", None)
                if root is None:
                    return result
                self._record(spec, seq, root=int(root))
                try:
                    return dataclasses.replace(result, root=int(root) + 1)
                except TypeError:  # not a dataclass — leave it alone
                    return result
        return result

    def events_as_dicts(self) -> list:
        """Every fired fault as plain dicts (for the chaos report)."""
        with self._lock:
            return [event.as_dict() for event in self.events]


class FaultySession:
    """Session proxy that routes batches through the injector.

    Mirrors the :class:`~repro.serve.session.GraphSession` surface the
    scheduler touches.  ``fresh()`` returns a *clean* (unwrapped)
    session — hedged retries and failure retries run against it, and a
    retry that still hit the injected fault would defeat the point of
    retrying somewhere fresh.
    """

    def __init__(self, session, injector: ServeFaultInjector) -> None:
        self._inner = session
        self._injector = injector

    @property
    def inner(self):
        """The wrapped session (ground-truth checks go here)."""
        return self._inner

    @property
    def graph(self):
        """The wrapped session's graph."""
        return self._inner.graph

    @property
    def config(self):
        """The wrapped session's per-query config."""
        return self._inner.config

    @property
    def digest(self) -> str:
        """The wrapped session's graph digest."""
        return self._inner.digest

    @property
    def tracer(self):
        """The wrapped session's tracer, if any."""
        return self._inner.tracer

    def fresh(self):
        """A clean, *unwrapped* session — retries dodge the injector."""
        return self._inner.fresh()

    def run(self, source: int, validate: bool = False):
        """Single-source convenience over :meth:`run_batch`."""
        return self.run_batch([source], validate=validate)[0]

    def run_batch(
        self,
        sources,
        validate: bool = False,
        trace_ids=None,
        batch_id: str | None = None,
        cancel=None,
    ):
        """Run a batch, letting the injector delay or fail it first."""
        self._injector.session_tick(len(list(sources)))
        return self._inner.run_batch(
            sources, validate=validate, trace_ids=trace_ids,
            batch_id=batch_id, cancel=cancel,
        )
