"""Human-readable schedules of the allgather algorithms (Figs. 5 and 7).

Figures 5a, 5b and 7 of the paper are *mechanism* diagrams; this module
renders them as textual step tables.  The steps — their channels, bytes
and times — are the step table the simulator charges
(:mod:`repro.mpi.collectives`); this module only adds a label and a
description per step, so the diagrams can be checked against the
implementation (``repro-experiment`` prints them via the fig06 bench,
and ``tests/test_api_schedule.py`` pins the structure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.collectives import (
    _BCASTS,
    _GATHERS,
    AllgatherAlgorithm,
    _schedule,
)
from repro.mpi.simcomm import SimComm
from repro.util.formatting import format_bytes, format_time_ns

__all__ = ["ScheduleStep", "explain_allgather"]


@dataclass(frozen=True)
class ScheduleStep:
    """One step of a collective schedule."""

    name: str
    channel: str  # "intra-node" | "inter-node" | "both" | "none"
    description: str
    bytes_moved_per_node: float
    time_ns: float

    def render(self) -> str:
        """One-line rendering of the step."""
        t = format_time_ns(self.time_ns)
        vol = (
            format_bytes(self.bytes_moved_per_node)
            if self.bytes_moved_per_node
            else "-"
        )
        return f"{self.name:14s} [{self.channel:10s}] {t:>10s} {vol:>10s}  {self.description}"


#: Label and description of each step; ``{...}`` fields are filled from
#: the communicator, the step and the payload sizes.
_TEXT = {
    "ring": (
        "ring",
        "{hops} steps; every rank forwards its current block to its "
        "successor (node-major order: {copies} intra copies + 1 inter "
        "flow per node per step)",
    ),
    "recursive_doubling": (
        "recursive-dbl",
        "log2({ranks}) rounds of pairwise exchange, payload doubling each "
        "round",
    ),
    "overlapped": (
        "overlapped",
        "leader scheme with perfectly overlapped intra/inter steps "
        "(HierKNEM-style): completes when the slower side does — the "
        "intra side, at large payloads (Fig. 6)",
    ),
    "intra_gather": (
        "step 1 gather",
        "{flows} children copy their parts to the node leader "
        "(Fig. 5 STEP 1)",
    ),
    "inter": (
        "step 2 inter",
        "node leaders allgather node blocks over InfiniBand "
        "(Fig. 5 STEP 2; one flow per node)",
    ),
    "intra_bcast": (
        "step 3 bcast",
        "the leader broadcasts the full result to {flows} children "
        "(Fig. 5a STEP 3)",
    ),
    "codec_encode": (
        "codec encode",
        "every rank encodes its part with the '{codec}' frontier codec "
        "({raw_part} -> {wire_part} per part, {ratio:.1f}x overall)",
    ),
    "codec_decode": (
        "codec decode",
        "every rank decodes the gathered '{codec}' payload back to the "
        "full bitmap ({wire_total} -> {raw_total})",
    ),
}

#: Steps that read differently under one algorithm.
_VARIANTS = {
    (AllgatherAlgorithm.PARALLEL_SHARED, "inter"): (
        "step 2 inter",
        "{flows} subgroups allgather 1/{flows} of the data each, "
        "concurrently saturating the IB ports (Fig. 7)",
    ),
    (AllgatherAlgorithm.MULTI_LEADER, "inter"): (
        "inter",
        "every per-socket leader allgathers the FULL payload ({flows} "
        "flows per node, each carrying whole node blocks — {ppn}x the "
        "volume of Fig. 7)",
    ),
}

#: The leader's on-node steps where node-shared memory removes them.
_ELIMINATED = {
    "intra_gather": "eliminated: out_queue slots live in node-shared "
    "memory, the leader reads them directly (Fig. 5b / 'Share all')",
    "intra_bcast": "eliminated: the destination in_queue is node-shared, "
    "every rank reads the result in place (Fig. 5b)",
}

#: The leader's on-node steps an algorithm keeps, where they still move
#: nothing: the node has no child rank, or the payload is empty.
_IDLE = {
    "intra_gather": "idle: {why}, so no child copies a part to the leader",
    "intra_bcast": "idle: {why}, so the leader copies the result to no "
    "child",
}

#: The algorithms that run each on-node step.
_KEPT = {"intra_gather": _GATHERS, "intra_bcast": _BCASTS}

_CHANNEL = {
    "intra": "intra-node",
    "inter": "inter-node",
    "both": "both",
    "none": "none",
    "cpu": "none",
}

#: The Fig. 5/7 family shows its idle steps as eliminated; the other
#: algorithms' idle steps only keep the breakdown's keys.
_FIG5 = (
    AllgatherAlgorithm.LEADER,
    AllgatherAlgorithm.SHARED_IN,
    AllgatherAlgorithm.SHARED_ALL,
    AllgatherAlgorithm.PARALLEL_SHARED,
)


def explain_allgather(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
    *,
    codec: str | None = None,
    wire_part_bytes: float | None = None,
    wire_total_bytes: float | None = None,
    subgroups: int | None = None,
) -> list[ScheduleStep]:
    """The step structure of one allgather on one payload.

    With a non-raw ``codec``, the transmission steps are priced at the
    given wire sizes (defaulting to the raw sizes when the caller has no
    measurement) and the schedule is bracketed by the codec's encode and
    decode steps, as :func:`repro.mpi.collectives.allgather` charges
    them during a functional run.  A step's bytes per node are its
    channel bytes divided by the node count.
    """
    if total_bytes is None:
        total_bytes = part_bytes * comm.num_ranks
    encoded = codec not in (None, "raw")
    wire_part, wire_total = part_bytes, total_bytes
    if encoded:
        if wire_part_bytes is not None:
            wire_part = wire_part_bytes
        if wire_total_bytes is not None:
            wire_total = wire_total_bytes
    table = _schedule(
        comm, algorithm, wire_part, wire_total, subgroups,
        part_bytes if encoded else None,
    )
    ppn = comm.mapping.ppn
    fields = dict(
        ranks=comm.num_ranks,
        hops=comm.num_ranks - 1,
        ppn=ppn,
        copies=ppn - 1,
        codec=codec,
        raw_part=format_bytes(part_bytes),
        wire_part=format_bytes(wire_part),
        raw_total=format_bytes(total_bytes),
        wire_total=format_bytes(wire_total),
        ratio=total_bytes / wire_total if wire_total else 0.0,
        why="one rank per node" if ppn == 1 else "the payload is empty",
    )
    steps = []
    # Encoding precedes the transfer; the table lists it with the decode.
    for step in sorted(table, key=lambda s: s.name != "codec_encode"):
        if step.channel == "none" and algorithm not in _FIG5:
            continue
        label, text = _VARIANTS.get((algorithm, step.name), _TEXT[step.name])
        if step.channel == "none":
            text = (
                _IDLE[step.name] if algorithm in _KEPT[step.name]
                else _ELIMINATED[step.name]
            )
        steps.append(
            ScheduleStep(
                label,
                _CHANNEL[step.channel],
                text.format(flows=step.flows, **fields),
                (step.intra_bytes + step.inter_bytes) / comm.cluster.nodes,
                step.time_ns,
            )
        )
    return steps
