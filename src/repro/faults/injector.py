"""The runtime fault injector the communicator and engine consult.

One :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
for the duration of a run.  The hooks are:

* :meth:`begin_level` — the engine announces each level before expanding
  it, so collective-level decisions know where they are;
* :meth:`collective_attempt` — each functional collective (``allgather``,
  ``alltoallv``) calls this after pricing, before delivering data; a
  scheduled transient failure raises
  :class:`TransientCollectiveFault` carrying the wasted simulated time
  (the full attempt is re-transmitted on retry);
* :meth:`maybe_corrupt` — the allgather offers its gathered payload for
  deterministic bit flips (detected downstream by frontier checksums);
* :meth:`take_crash` — the engine polls at each level barrier for a
  scheduled rank crash;
* :meth:`straggler_factor` / :meth:`link_derating` — pricing
  perturbations consulted by the post-assembly repricer and the
  communicator's channel models.

Everything is deterministic: decisions are counter-based hashes of the
plan seed and the collective sequence number (retries draw fresh
numbers because each retry is a new invocation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, RankCrash

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "TransientCollectiveFault",
    "RankCrashFault",
    "PayloadCorruptionFault",
    "words_checksum",
]


class TransientCollectiveFault(FaultError):
    """A collective attempt failed transiently; retrying may succeed.

    ``wasted_ns`` is the simulated time of the failed attempt (the bytes
    moved before the failure are retransmitted on retry).
    """

    def __init__(self, message: str, wasted_ns: float = 0.0, **context) -> None:
        super().__init__(message, **context)
        self.wasted_ns = float(wasted_ns)


class RankCrashFault(FaultError):
    """A rank crashed; recovery needs a checkpoint restore."""


class PayloadCorruptionFault(FaultError):
    """A frontier checksum mismatched: the collective payload was
    corrupted in transit; recovery rolls back to the last checkpoint."""


def words_checksum(words: np.ndarray) -> tuple[int, int]:
    """Order-independent checksum of a word array: (xor, sum mod 2^64).

    Cheap enough to run per collective, and any single bit flip changes
    both components.  Parts checksums combine by xor/sum, so the sender
    side can be computed per rank and folded.
    """
    if words.size == 0:
        return (0, 0)
    w = words.view(np.uint64) if words.dtype != np.uint64 else words
    x = int(np.bitwise_xor.reduce(w))
    s = int(np.sum(w, dtype=np.uint64))
    return (x, s)


@dataclass
class FaultEvent:
    """One fault that actually fired (or recovery action that ran)."""

    kind: str  # crash | transient | corruption | straggler | link
    level: int
    op: str | None = None
    rank: int | None = None
    node: int | None = None
    seq: int | None = None
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The event as a plain JSON-serializable dict."""
        out = {"kind": self.kind, "level": self.level}
        for key in ("op", "rank", "node", "seq"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


class FaultInjector:
    """Stateful runtime view of a :class:`FaultPlan` for one run.

    The engine calls :meth:`reset` at the start of every run, so one
    injector can serve repeated runs (each run replays the identical
    fault schedule).  ``events`` records every fault that fired, in
    order, for the chaos report.
    """

    def __init__(self, plan: FaultPlan, tracer=None, metrics=None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.metrics = metrics
        self.events: list[FaultEvent] = []
        self._level = 0
        self._seq = 0  # collective invocation counter (incl. retries)
        self._crashes_fired: set[RankCrash] = set()
        self._corruptions_fired: set = set()
        self.reset()

    # ---- lifecycle -------------------------------------------------------

    def bind(self, tracer=None, metrics=None) -> None:
        """Attach the engine's telemetry sinks (None leaves unset)."""
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics

    def reset(self) -> None:
        """Rearm every fault for a fresh run."""
        self.events = []
        self._level = 0
        self._seq = 0
        self._crashes_fired = set()
        self._corruptions_fired = set()
        # Always-on pricing faults are part of the schedule by
        # construction; record them up front so reports show them even
        # though they never "fire" at a specific collective.
        for spec in self.plan.stragglers:
            self._record(
                FaultEvent(
                    kind="straggler",
                    level=spec.first_level,
                    rank=spec.rank,
                    detail={
                        "factor": spec.factor,
                        "last_level": spec.last_level,
                    },
                )
            )
        for spec in self.plan.links:
            self._record(
                FaultEvent(
                    kind="link",
                    level=0,
                    node=spec.node,
                    detail={"factor": spec.factor},
                )
            )

    def begin_level(self, level: int) -> None:
        """The engine is about to expand ``level``."""
        self._level = level

    # ---- collective hooks ------------------------------------------------

    def collective_attempt(self, op: str, wasted_ns: float = 0.0) -> None:
        """Consulted by each functional collective after pricing, before
        delivery (the counted-only allreduces never call it).

        Raises :class:`TransientCollectiveFault` when the plan schedules
        a transient failure for this invocation.
        """
        seq = self._seq
        self._seq += 1
        if self.plan.transient_fires(op, self._level, seq):
            self._record(
                FaultEvent(
                    kind="transient",
                    level=self._level,
                    op=op,
                    seq=seq,
                    detail={"wasted_ns": float(wasted_ns)},
                )
            )
            raise TransientCollectiveFault(
                f"injected transient failure in {op}",
                wasted_ns=wasted_ns,
                collective=op,
                level=self._level,
            )

    def maybe_corrupt(self, op: str, words: np.ndarray) -> np.ndarray:
        """Apply any scheduled payload corruption to ``words``.

        Returns the (possibly copied and bit-flipped) payload; flips are
        deterministic positions from the plan seed and the collective
        sequence number.
        """
        due = None
        for spec in self.plan.corruptions:
            if (
                spec not in self._corruptions_fired
                and spec.op == op
                and self._level >= spec.level
            ):
                due = spec
                break
        if due is None or words.size == 0:
            return words
        self._corruptions_fired.add(due)
        seq = self._seq  # already advanced past this collective
        corrupted = np.array(words, dtype=np.uint64, copy=True)
        nbits = corrupted.size * 64
        flipped = []
        for flip in range(due.bit_flips):
            bit = self.plan.corruption_bit(seq, nbits, flip)
            corrupted[bit // 64] ^= np.uint64(1) << np.uint64(bit % 64)
            flipped.append(bit)
        self._record(
            FaultEvent(
                kind="corruption",
                level=self._level,
                op=op,
                seq=seq,
                detail={"bits": flipped},
            )
        )
        return corrupted

    # ---- engine hooks ----------------------------------------------------

    def take_crash(self, level: int) -> RankCrash | None:
        """The crash scheduled for ``level``, if any (consumed once)."""
        for spec in self.plan.crashes:
            if spec.level == level and spec not in self._crashes_fired:
                self._crashes_fired.add(spec)
                self._record(
                    FaultEvent(kind="crash", level=level, rank=spec.rank)
                )
                return spec
        return None

    # ---- pricing hooks ---------------------------------------------------

    def straggler_factor(self, rank: int, level: int) -> float:
        """Compute slowdown of ``rank`` at ``level`` (>= 1)."""
        return self.plan.straggler_factor(rank, level)

    def link_derating(self, node: int) -> float:
        """Bandwidth multiplier of ``node`` (<= 1)."""
        return self.plan.link_derating(node)

    @property
    def has_stragglers(self) -> bool:
        """True when the plan slows any rank down."""
        return bool(self.plan.stragglers)

    @property
    def has_link_faults(self) -> bool:
        """True when the plan degrades any node's links."""
        return bool(self.plan.links)

    # ---- recording -------------------------------------------------------

    def _record(self, event: FaultEvent) -> None:
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter(
                "fault.injected_total", kind=event.kind
            ).inc()
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.instant(
                f"fault.{event.kind}", cat="fault", **event.as_dict()
            )
