"""Deterministic fault injection and fault-tolerant execution support.

The subsystem has four layers (see docs/ROBUSTNESS.md):

* :mod:`repro.faults.plan` — declarative, seeded fault scenarios
  (:class:`FaultPlan` and the per-kind specs);
* :mod:`repro.faults.injector` — the runtime :class:`FaultInjector` the
  communicator and engine consult before moving bytes or pricing time;
* :mod:`repro.faults.checkpoint` — level-granular BFS state snapshots
  with in-memory and on-disk (``.npz``) stores;
* :mod:`repro.faults.recovery` — the tolerance policy
  (:class:`ResilienceConfig`), simulated recovery pricing
  (:class:`RecoveryCostModel`) and the per-run :class:`RecoveryReport`.

``repro-chaos`` (:mod:`repro.faults.chaoscli`) sweeps scenario matrices
and verifies every recovered run against its fault-free twin.

The *serving* stack has its own chaos surface —
:mod:`repro.faults.serveinject` injects session errors, batch
stragglers, dispatcher kills and cache poison into the
:class:`~repro.serve.scheduler.BatchScheduler`, and
:mod:`repro.faults.servechaos` runs the ``repro-chaos serve`` campaign
that asserts detection (SLO burn) and recovery for each.
"""

from repro.faults.checkpoint import (
    BFSCheckpoint,
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
)
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    PayloadCorruptionFault,
    TransientCollectiveFault,
    words_checksum,
)
from repro.faults.plan import (
    SERVE_FAULT_KINDS,
    FaultPlan,
    LinkDegradation,
    PayloadCorruption,
    RankCrash,
    ServeFault,
    StragglerSlowdown,
    TransientFaults,
    available_scenarios,
)
from repro.faults.recovery import (
    RecoveryCostModel,
    RecoveryLog,
    RecoveryReport,
    ResilienceConfig,
)
# The serving-chaos layer imports repro.serve, which imports the core
# engine, which imports repro.faults.checkpoint — so these names must
# resolve lazily to keep the package import acyclic.
_LAZY = {
    "FaultySession": "repro.faults.serveinject",
    "ServeFaultInjector": "repro.faults.serveinject",
    "available_serve_scenarios": "repro.faults.servechaos",
    "run_serve_campaign": "repro.faults.servechaos",
    "serve_plan": "repro.faults.servechaos",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "BFSCheckpoint",
    "CheckpointStore",
    "DiskCheckpointStore",
    "MemoryCheckpointStore",
    "FaultEvent",
    "FaultInjector",
    "PayloadCorruptionFault",
    "TransientCollectiveFault",
    "words_checksum",
    "FaultPlan",
    "LinkDegradation",
    "PayloadCorruption",
    "RankCrash",
    "StragglerSlowdown",
    "TransientFaults",
    "available_scenarios",
    "RecoveryCostModel",
    "RecoveryLog",
    "RecoveryReport",
    "ResilienceConfig",
    "SERVE_FAULT_KINDS",
    "ServeFault",
    "ServeFaultInjector",
    "FaultySession",
    "available_serve_scenarios",
    "run_serve_campaign",
    "serve_plan",
]
