"""Fault-tolerance policy, recovery pricing, and the per-run report.

:class:`ResilienceConfig` is the engine's tolerance policy: how often to
checkpoint, which store to use, how many retries/rollbacks to spend, and
the backoff schedule.  :class:`RecoveryCostModel` prices every recovery
action into *simulated* time (checkpoints, restores, failure detection,
rank respawn, retry backoff) so a recovered run's simulated seconds
honestly include their overhead.  :class:`RecoveryLog` accumulates what
happened during one run; :class:`RecoveryReport` is the frozen summary
attached to :class:`~repro.core.engine.BFSResult` and consumed by the
chaos CLI, metrics and docs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.checkpoint import (
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
)

__all__ = [
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
