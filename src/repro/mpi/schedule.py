"""Human-readable schedules of the allgather algorithms (Figs. 5 and 7).

Figures 5a, 5b and 7 of the paper are *mechanism* diagrams; this module
reproduces them as step-by-step textual schedules computed from the same
cost functions the simulator charges, so the diagrams can be checked
against the implementation (``repro-experiment`` prints them via the
fig06 bench, and ``tests/test_api_schedule.py`` pins the structure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CommunicationError
from repro.mpi.collectives import AllgatherAlgorithm, allgather_time
from repro.mpi.simcomm import SimComm
from repro.util.formatting import format_bytes, format_time_ns

__all__ = ["ScheduleStep", "explain_allgather"]


@dataclass(frozen=True)
class ScheduleStep:
    """One step of a collective schedule."""

    name: str
    channel: str  # "intra-node" | "inter-node" | "none"
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
    decode steps, mirroring what :func:`repro.mpi.collectives.allgather`
    charges during a functional run.
    """
    if part_bytes < 0:
        raise CommunicationError("negative part size")
    if total_bytes is None:
        total_bytes = part_bytes * comm.num_ranks
    encoded = codec not in (None, "raw")
    tx_part = part_bytes
    tx_total = total_bytes
    if encoded:
        tx_part = part_bytes if wire_part_bytes is None else wire_part_bytes
        tx_total = total_bytes if wire_total_bytes is None else wire_total_bytes
    ppn = comm.mapping.ppn
    nodes = comm.cluster.nodes
    total_t, breakdown = allgather_time(
        comm, algorithm, tx_part, tx_total, subgroups=subgroups
    )

    steps: list[ScheduleStep] = []
    if encoded:
        enc_t = comm.codec_model.encode_time_ns(part_bytes)
        dec_t = comm.codec_model.decode_time_ns(tx_total)
        total_t += enc_t + dec_t
        ratio = total_bytes / tx_total if tx_total else 0.0
        steps.append(
            ScheduleStep(
                "codec encode",
                "none",
                f"every rank encodes its part with the '{codec}' frontier "
                f"codec ({format_bytes(part_bytes)} -> "
                f"{format_bytes(tx_part)} per part, {ratio:.1f}x overall)",
                0.0,
                enc_t,
            )
        )
    def _finish(steps: list[ScheduleStep]) -> list[ScheduleStep]:
        """Append the decode step (when encoded) and check the total."""
        if encoded:
            steps.append(
                ScheduleStep(
                    "codec decode",
                    "none",
                    f"every rank decodes the gathered '{codec}' payload "
                    f"back to the full bitmap "
                    f"({format_bytes(tx_total)} -> {format_bytes(total_bytes)})",
                    0.0,
                    dec_t,
                )
            )
        assert abs(sum(s.time_ns for s in steps) - total_t) < 1e-6
        return steps

    if set(breakdown) == {"ring"}:
        steps.append(
            ScheduleStep(
                "ring",
                "both",
                f"{comm.num_ranks - 1} steps; every rank forwards its "
                f"current block to its successor (node-major order: "
                f"{ppn - 1} intra copies + 1 inter flow per node per step)",
                tx_total - tx_part,
                breakdown["ring"],
            )
        )
        return _finish(steps)
    if set(breakdown) == {"recursive_doubling"}:
        steps.append(
            ScheduleStep(
                "recursive-dbl",
                "both",
                f"log2({comm.num_ranks}) rounds of pairwise exchange, "
                f"payload doubling each round",
                tx_total - tx_part,
                breakdown["recursive_doubling"],
            )
        )
        return _finish(steps)

    if algorithm is AllgatherAlgorithm.LEADER_OVERLAPPED:
        steps.append(
            ScheduleStep(
                "overlapped",
                "both",
                "leader scheme with perfectly overlapped intra/inter "
                "steps (HierKNEM-style): completes when the slower side "
                "does — the intra side, at large payloads (Fig. 6)",
                tx_total * (ppn - 1) + tx_part * (ppn - 1),
                breakdown["overlapped"],
            )
        )
        return _finish(steps)

    # The leader-based family (Figs. 5a, 5b, 7).
    gather = breakdown.get("intra_gather", 0.0)
    inter = breakdown.get("inter", 0.0)
    bcast = breakdown.get("intra_bcast", 0.0)
    if algorithm is AllgatherAlgorithm.MULTI_LEADER:
        steps.append(
            ScheduleStep(
                "inter",
                "inter-node",
                f"every per-socket leader allgathers the FULL payload "
                f"({ppn} flows per node, each carrying whole node blocks "
                f"— {ppn}x the volume of Fig. 7)",
                (tx_total - tx_total / nodes) * ppn if nodes > 1 else 0,
                inter,
            )
        )
        return _finish(steps)

    if gather > 0:
        steps.append(
            ScheduleStep(
                "step 1 gather",
                "intra-node",
                f"{ppn - 1} children copy their parts to the node leader "
                f"(Fig. 5 STEP 1)",
                tx_part * (ppn - 1),
                gather,
            )
        )
    else:
        steps.append(
            ScheduleStep(
                "step 1 gather",
                "none",
                "eliminated: out_queue slots live in node-shared memory, "
                "the leader reads them directly (Fig. 5b / 'Share all')",
                0.0,
                0.0,
            )
        )
    if algorithm is AllgatherAlgorithm.PARALLEL_SHARED:
        groups = ppn if subgroups is None else subgroups
        steps.append(
            ScheduleStep(
                "step 2 inter",
                "inter-node",
                f"{groups} subgroups allgather 1/{groups} of the data "
                f"each, concurrently saturating the IB ports (Fig. 7)",
                tx_total - tx_total / nodes if nodes > 1 else 0,
                inter,
            )
        )
    else:
        steps.append(
            ScheduleStep(
                "step 2 inter",
                "inter-node",
                "node leaders allgather node blocks over InfiniBand "
                "(Fig. 5 STEP 2; one flow per node)",
                tx_total - tx_total / nodes if nodes > 1 else 0,
                inter,
            )
        )
    if bcast > 0:
        steps.append(
            ScheduleStep(
                "step 3 bcast",
                "intra-node",
                f"the leader broadcasts the full result to {ppn - 1} "
                f"children (Fig. 5a STEP 3)",
                tx_total * (ppn - 1),
                bcast,
            )
        )
    else:
        steps.append(
            ScheduleStep(
                "step 3 bcast",
                "none",
                "eliminated: the destination in_queue is node-shared, "
                "every rank reads the result in place (Fig. 5b)",
                0.0,
                0.0,
            )
        )
    return _finish(steps)
