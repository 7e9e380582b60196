"""Fault-tolerance policy, recovery pricing, the per-run report, and the
engine's whole fault path.

:class:`ResilienceConfig` is the engine's tolerance policy: how often to
checkpoint, which store to use, how many retries/rollbacks to spend, and
the backoff schedule.  :class:`RecoveryCostModel` prices every recovery
action into *simulated* time (checkpoints, restores, failure detection,
rank respawn, retry backoff) so a recovered run's simulated seconds
honestly include their overhead.  :class:`RecoveryLog` accumulates what
happened during one run; :class:`RecoveryReport` is the frozen summary
attached to :class:`~repro.core.engine.BFSResult` and consumed by the
chaos CLI, metrics and docs.

:class:`Recovery` is the set of hooks the engine's level loop calls at
fixed points: run start, top of level, each collective, after the
gather, level barrier and run end.  :data:`ALL_OFF` is its all-off
instance, every hook a no-op, which a fault-free engine uses;
:class:`FaultTolerance` is the real one (checkpoint, rollback, retry
with backoff, frontier checksums, straggler repricing).  The loop never
asks which one it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, FaultError
from repro.faults.checkpoint import (
    BFSCheckpoint,
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
)
from repro.faults.injector import (
    FaultInjector,
    PayloadCorruptionFault,
    RankCrashFault,
    TransientCollectiveFault,
    words_checksum,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "ALL_OFF",
    "FaultTolerance",
    "Recovery",
    "RecoveryCostModel",
    "ResilienceConfig",
    "RecoveryLog",
    "RecoveryReport",
]


@dataclass(frozen=True)
class RecoveryCostModel:
    """Simulated-time prices of recovery actions (ns / bytes-per-ns).

    Defaults model an in-memory checkpoint on the paper's X7550 nodes
    (snapshot at memory-copy speed) with MPI-style failure detection
    timeouts; the disk bandwidths apply when a
    :class:`~repro.faults.checkpoint.DiskCheckpointStore` is used.
    """

    #: Bandwidth of an in-memory checkpoint copy (bytes/s).
    memory_snapshot_bw: float = 8e9
    #: Write/read bandwidth of an on-disk checkpoint (bytes/s).
    disk_write_bw: float = 1.5e9
    disk_read_bw: float = 3e9
    #: Fixed cost per checkpoint/restore (metadata, barriers).
    checkpoint_latency_ns: float = 20_000.0
    #: Failure-detector timeout before a crash is declared.
    crash_detect_ns: float = 2_000_000.0
    #: Cost of respawning a replacement rank and rejoining the job.
    respawn_ns: float = 10_000_000.0
    #: Retry backoff: ``base * factor**(attempt-1)`` per failed attempt.
    backoff_base_ns: float = 100_000.0
    backoff_factor: float = 2.0
    #: Per-byte cost of the frontier checksum (both sides of a verify).
    checksum_ns_per_byte: float = 0.05

    def checkpoint_ns(self, nbytes: int, on_disk: bool) -> float:
        """Simulated cost of capturing one checkpoint."""
        bw = self.disk_write_bw if on_disk else self.memory_snapshot_bw
        return self.checkpoint_latency_ns + nbytes / bw * 1e9

    def restore_ns(self, nbytes: int, on_disk: bool) -> float:
        """Simulated cost of restoring one checkpoint."""
        bw = self.disk_read_bw if on_disk else self.memory_snapshot_bw
        return self.checkpoint_latency_ns + nbytes / bw * 1e9

    def backoff_ns(self, attempt: int) -> float:
        """Exponential backoff delay after failed attempt ``attempt``."""
        return self.backoff_base_ns * self.backoff_factor ** max(
            0, attempt - 1
        )

    def checksum_ns(self, nbytes: float) -> float:
        """Cost of one checksum verification over ``nbytes``."""
        return self.checksum_ns_per_byte * float(nbytes)


@dataclass
class ResilienceConfig:
    """The engine's fault-tolerance policy.

    ``checkpoint_every=0`` disables checkpointing (crashes and corruption
    then abort with a typed :class:`~repro.errors.FaultError`); the
    default checkpoints at every level boundary.  ``store=None`` builds a
    private in-memory store per engine.
    """

    checkpoint_every: int = 1
    store: CheckpointStore | None = None
    max_attempts: int = 5
    max_rollbacks: int = 8
    verify_checksums: bool = True
    cost: RecoveryCostModel = field(default_factory=RecoveryCostModel)

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.max_rollbacks < 0:
            raise ConfigError("max_rollbacks must be >= 0")
        if self.store is None:
            self.store = MemoryCheckpointStore()

    @property
    def on_disk(self) -> bool:
        """True when checkpoints go through the disk store."""
        return isinstance(self.store, DiskCheckpointStore)


@dataclass
class RecoveryLog:
    """What fault tolerance did during one run (mutable accumulator)."""

    checkpoints: int = 0
    checkpoint_bytes: int = 0
    retries: int = 0
    rollbacks: int = 0
    #: Levels whose work was executed, lost, and re-executed (one entry
    #: per lost execution; a level can appear repeatedly).
    replayed_levels: list[int] = field(default_factory=list)
    #: Overhead priced independently of level times: retry waste +
    #: backoff, checkpoint/restore, detection, respawn, checksums.
    fixed_overhead_ns: float = 0.0
    actions: list[dict] = field(default_factory=list)

    def note(self, action: str, **detail) -> None:
        """Append one recovery action record."""
        self.actions.append({"action": action, **detail})

    def overhead_ns(self, timing) -> float:
        """Total simulated recovery overhead given the final pricing.

        Replayed levels were executed and thrown away once per entry, so
        their (final) level time counts once more on top of the fixed
        costs.
        """
        lost = 0.0
        by_level = {lt.level: lt.total_ns for lt in timing.levels}
        for level in self.replayed_levels:
            lost += by_level.get(level, 0.0)
        return self.fixed_overhead_ns + lost


@dataclass(frozen=True)
class RecoveryReport:
    """Frozen per-run recovery summary (``BFSResult.recovery``)."""

    checkpoints: int
    checkpoint_bytes: int
    retries: int
    rollbacks: int
    replayed_levels: tuple[int, ...]
    overhead_ns: float
    fault_events: tuple[dict, ...]
    actions: tuple[dict, ...]

    @property
    def overhead_seconds(self) -> float:
        """Recovery overhead in simulated seconds."""
        return self.overhead_ns / 1e9

    @property
    def recovered(self) -> bool:
        """True when any retry or rollback actually happened."""
        return self.retries > 0 or self.rollbacks > 0

    @classmethod
    def from_log(
        cls, log: RecoveryLog, timing, fault_events
    ) -> "RecoveryReport":
        """Freeze a run's accumulator against its final pricing."""
        return cls(
            checkpoints=log.checkpoints,
            checkpoint_bytes=log.checkpoint_bytes,
            retries=log.retries,
            rollbacks=log.rollbacks,
            replayed_levels=tuple(log.replayed_levels),
            overhead_ns=log.overhead_ns(timing),
            fault_events=tuple(ev.as_dict() for ev in fault_events),
            actions=tuple(log.actions),
        )

    def as_dict(self) -> dict:
        """The report as a plain JSON-serializable dict."""
        return {
            "checkpoints": self.checkpoints,
            "checkpoint_bytes": self.checkpoint_bytes,
            "retries": self.retries,
            "rollbacks": self.rollbacks,
            "replayed_levels": list(self.replayed_levels),
            "overhead_ns": self.overhead_ns,
            "fault_events": [dict(ev) for ev in self.fault_events],
            "actions": [dict(a) for a in self.actions],
        }


class Recovery:
    """The level loop's fault path with everything off.

    Each method is one hook the engine calls at a fixed point of its
    level loop; here every hook is a no-op and a collective runs once.
    :class:`FaultTolerance` overrides them all.
    """

    #: True when a fault plan is armed (the engine then runs its
    #: data-less collectives so the injector gets its attempts).
    injects = False

    def start(self, policy, parent, unexplored, counts, visited_words):
        """Run start: bind lane 0's live state (rolled back in place)."""

    def top_of_level(self, level: int, prev_direction, frontier) -> None:
        """Top of ``level``, before the direction decision."""

    def exchange(self, op: str, level: int, fn):
        """Run one collective (``fn``) and return its result."""
        return fn()

    def after_gather(self, level: int, sent, got) -> None:
        """The allgather of ``level`` delivered ``got`` for ``sent``."""

    def barrier(self, level: int) -> None:
        """The barrier that ends ``level``."""

    def rollback(self, fault):
        """Answer a :class:`~repro.faults.injector.RollbackFault`; with
        fault tolerance off it propagates."""
        raise fault

    def finish(self, result) -> None:
        """Run end: lane 0's priced result."""


#: The fault path of an engine built with no plan and no policy.
ALL_OFF = Recovery()


class FaultTolerance(Recovery):
    """Checkpoint, rollback, retry and checksums for one engine's runs.

    Built once per engine from its ``resilience`` policy and, when a
    plan is armed, its :class:`~repro.faults.injector.FaultInjector`;
    without one an empty-plan injector stands in, so no fault fires.
    Per run it keeps a :class:`RecoveryLog` and, at run end, attaches
    the :class:`RecoveryReport` to the result.  Every recovery action
    is priced into the log, never into the level's own pricing.
    """

    def __init__(
        self, config: ResilienceConfig, injector: FaultInjector | None, *,
        tracer, metrics, hostprof,
    ) -> None:
        self.config = config
        self.injects = injector is not None
        self.injector = injector or FaultInjector(FaultPlan())
        self.injector.bind(tracer=tracer, metrics=metrics)
        self.tracer = tracer
        self.metrics = metrics
        self.hostprof = hostprof

    def _count(self, name: str, amount: float = 1.0, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def start(self, policy, parent, unexplored, counts, visited_words):
        """Rearm the injector, empty the store and open a fresh log."""
        self._policy = policy
        self._parent = parent
        self._unexplored = unexplored
        self._counts = counts
        self._visited = visited_words
        self.injector.reset()
        self.config.store.clear()
        self.log = RecoveryLog()
        self._last_checkpoint = -1

    def top_of_level(self, level: int, prev_direction, frontier) -> None:
        """Checkpoint on the policy's cadence; announce the level."""
        every = self.config.checkpoint_every
        if every and level % every == 0 and level != self._last_checkpoint:
            # Captured *before* the direction decision so a rollback
            # replays it too.  After a rollback the restored level's
            # state is identical to the stored snapshot, so it is
            # skipped rather than re-captured (and re-priced).
            self._last_checkpoint = level
            with self.hostprof.phase("checkpoint"):
                self._checkpoint(level, prev_direction, frontier)
        self.injector.begin_level(level)

    def _checkpoint(self, level: int, prev_direction, frontier) -> None:
        """Snapshot lane 0 at a level boundary and price the capture."""
        cfg = self.config
        ckpt = BFSCheckpoint.capture(
            level=level, prev_direction=prev_direction, policy=self._policy,
            parent=self._parent, unexplored=self._unexplored,
            frontier=frontier, visited_words=self._visited,
        )
        nbytes = ckpt.nbytes
        with self.tracer.span(
            "recovery.checkpoint", cat="recovery", level=level, nbytes=nbytes,
        ):
            cfg.store.put(ckpt)
        self.log.checkpoints += 1
        self.log.checkpoint_bytes += nbytes
        self.log.fixed_overhead_ns += cfg.cost.checkpoint_ns(
            nbytes, cfg.on_disk
        )
        self._count("recovery.checkpoints_total")
        self._count("recovery.checkpoint_bytes_total", float(nbytes))

    def exchange(self, op: str, level: int, fn):
        """Run one collective with bounded retry on transient faults.

        Each failed attempt wasted its full priced duration (the payload
        is retransmitted from scratch) plus an exponential backoff.
        Exhausting the attempt budget aborts the run with a typed
        :class:`~repro.errors.FaultError`.
        """
        cfg = self.config
        last = None
        for attempt in range(1, cfg.max_attempts + 1):
            try:
                return fn()
            except TransientCollectiveFault as exc:
                last = exc
                backoff = cfg.cost.backoff_ns(attempt)
                self.log.retries += 1
                self.log.fixed_overhead_ns += exc.wasted_ns + backoff
                self.log.note(
                    "retry", collective=op, level=level, attempt=attempt,
                    wasted_ns=exc.wasted_ns, backoff_ns=backoff,
                )
                self._count("recovery.retries_total", collective=op)
        raise FaultError(
            f"{op} failed after {cfg.max_attempts} attempts at level {level}",
            collective=op, level=level, attempts=cfg.max_attempts,
        ) from last

    def after_gather(self, level: int, sent, got) -> None:
        """Compare the sender's checksum of ``sent`` (which the
        allgather never writes) with the delivered ``got``: codecs are
        lossless, so any in-flight bit flip is caught here before a
        byte of it reaches engine state."""
        cfg = self.config
        if not cfg.verify_checksums:
            return
        expected, actual = words_checksum(sent), words_checksum(got)
        self.log.fixed_overhead_ns += cfg.cost.checksum_ns(got.size * 8)
        if actual != expected:
            raise PayloadCorruptionFault(
                "frontier checksum mismatch after allgather",
                collective="allgather", level=level,
                expected="{:016x}/{:016x}".format(*expected),
                actual="{:016x}/{:016x}".format(*actual),
            )

    def barrier(self, level: int) -> None:
        """Crash detection: the crashed level's work completed on the
        survivors but is lost with the dead rank, so it is replayed."""
        crash = self.injector.take_crash(level)
        if crash is not None:
            raise RankCrashFault(
                f"rank {crash.rank} crashed", level=level, rank=crash.rank
            )

    def rollback(self, fault):
        """Restore the latest snapshot after ``fault``.

        Rewinds lane 0's live state in place, truncates its recorded
        level counts (the final pricing must never double-count a
        replayed level) and logs the lost executions: levels
        ``ckpt.level`` through the fault's level inclusive ran once for
        nothing, so :meth:`RecoveryLog.overhead_ns` charges each of them
        once more at its final price.  Returns ``(frontier, level,
        prev_direction)`` to resume from.
        """
        cfg, log, kind = self.config, self.log, fault.kind
        at_level, rank = fault.context["level"], fault.context.get("rank")
        # A crash is the barrier's own finding; only a corrupted payload
        # is a cause worth chaining to an abort.
        cause = None if kind == "crash" else fault
        ckpt = cfg.store.latest()
        if ckpt is None:
            raise FaultError(
                f"{kind} fault at level {at_level} with no checkpoint to "
                f"restore from",
                kind=kind, level=at_level, rank=rank,
            ) from cause
        if log.rollbacks >= cfg.max_rollbacks:
            raise FaultError(
                f"rollback budget exhausted after {log.rollbacks} rollbacks",
                kind=kind, level=at_level, rank=rank,
                max_rollbacks=cfg.max_rollbacks,
            ) from cause
        log.rollbacks += 1
        with self.tracer.span(
            "recovery.rollback", cat="recovery",
            kind=kind, from_level=at_level, to_level=ckpt.level,
        ):
            frontier, visited = ckpt.restore(
                self._policy, self._parent, self._unexplored
            )
            if self._visited is not None and visited is not None:
                self._visited[:] = visited
        del self._counts.levels[ckpt.level:]
        log.replayed_levels.extend(range(ckpt.level, at_level + 1))
        overhead = cfg.cost.restore_ns(ckpt.nbytes, cfg.on_disk)
        if kind == "crash":
            overhead += cfg.cost.crash_detect_ns + cfg.cost.respawn_ns
        log.fixed_overhead_ns += overhead
        log.note(
            "rollback", kind=kind, from_level=at_level, to_level=ckpt.level,
            fixed_ns=overhead, rank=rank,
        )
        self._count("recovery.rollbacks_total", kind=kind)
        self._last_checkpoint = ckpt.level
        return frontier, ckpt.level, ckpt.prev_direction

    def finish(self, result) -> None:
        """Reprice stragglers, then attach the run's recovery report."""
        if self.injector.has_stragglers:
            _reprice_stragglers(result.timing, self.injector)
        result.recovery = RecoveryReport.from_log(
            self.log, result.timing, self.injector.events
        )
        self._count(
            "recovery.overhead_sim_ns_total", result.recovery.overhead_ns
        )


def _reprice_stragglers(timing, injector: FaultInjector) -> None:
    """Fold the plan's straggler slowdowns into the final pricing.

    A straggler is a pure pricing perturbation — it changes no
    functional result, so it is applied after pricing: per-rank compute
    times stretch by the slowdown factor, the level mean/max/stall are
    recomputed, and the Fig. 11 breakdown absorbs the deltas (everyone
    waits for the slow rank at the barrier).
    """
    # Imported here: the engine imports this module.
    from repro.core.counts import Direction

    bd = timing.breakdown
    for lt in timing.levels:
        factors = np.array([
            injector.straggler_factor(r, lt.level)
            for r in range(len(lt.compute_rank_ns))
        ])
        if not np.any(factors > 1.0):
            continue
        old_mean, old_stall = lt.compute_mean_ns, lt.stall_ns
        lt.compute_rank_ns = lt.compute_rank_ns * factors
        lt.compute_mean_ns = float(lt.compute_rank_ns.mean())
        lt.compute_max_ns = float(lt.compute_rank_ns.max())
        lt.stall_ns = lt.compute_max_ns - lt.compute_mean_ns
        if lt.direction == Direction.TOP_DOWN:
            bd.td_compute += lt.compute_mean_ns - old_mean
        else:
            bd.bu_compute += lt.compute_mean_ns - old_mean
        bd.stall += lt.stall_ns - old_stall
