"""The allgather algorithm family (Figs. 5-7 of the paper).

Every algorithm is *functionally* an allgatherv: rank ``r`` contributes
``parts[r]`` and afterwards every rank can read the concatenation.  What
differs is the message schedule, and therefore the simulated time:

``RING`` / ``RECURSIVE_DOUBLING`` / ``DEFAULT``
    The classic algorithms Open MPI 1.5.5 selects by message size
    (Thakur & Gropp): recursive doubling for small payloads, ring for
    large ones.  With eight ranks per node most ring traffic is
    intra-node copies contending for the memory system.

``LEADER``
    Fig. 5a: gather to the node leader, allgather among leaders over
    InfiniBand, broadcast to the node's children.  The two intra-node
    steps move 1x and (np-1)/np x the *full* payload through one
    socket's memory controller — this is why Fig. 6 shows intra-node
    time dominating.

``SHARED_IN``
    Fig. 5b applied to ``in_queue`` only: the destination buffer is
    node-shared, so the broadcast step disappears; the gather step
    remains because each rank's contribution still lives in private
    memory.

``SHARED_ALL``
    Source slots are shared too (``out_queue`` lives in the shared
    space): leaders read the children's parts directly, only the
    inter-node step remains.

``PARALLEL_SHARED``
    Fig. 7: the ranks of a node each lead one subgroup (ranks with equal
    local index across nodes); each subgroup allgathers its slice of the
    data concurrently, so all eight flows drive the two IB ports at the
    Fig. 4 saturated rate.  Transmitted volume is unchanged (eq. 2).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import CommunicationError
from repro.mpi.codecs import AutoCodec, FrontierCodec
from repro.mpi.codecs.base import segment_offsets
from repro.mpi.sharedmem import NodeSharedBuffer
from repro.mpi.simcomm import CollectiveResult, SimComm
from repro.util import bitops

__all__ = [
    "AllgatherAlgorithm",
    "allgather",
    "allgather_channel_bytes",
    "allgather_time",
    "parallel_allgather_time",
]

# Thakur-Gropp switchover: recursive doubling below, ring at or above.
_RING_THRESHOLD_BYTES = 512 * 1024


class AllgatherAlgorithm(enum.Enum):
    """The allgather algorithm menu (see module docstring)."""
    RING = "ring"
    RECURSIVE_DOUBLING = "recursive_doubling"
    DEFAULT = "default"
    LEADER = "leader"
    SHARED_IN = "shared_in"
    SHARED_ALL = "shared_all"
    PARALLEL_SHARED = "parallel_shared"
    # Kandalla et al. [21], the related-work comparator of Section III.B:
    # one leader per socket, but *every* leader still receives the full
    # payload, so the transmitted volume is ppn x that of Fig. 7.
    MULTI_LEADER = "multi_leader"
    # HierKNEM-style perfect overlap of the leader scheme's intra- and
    # inter-node steps (Ma et al. [25]).  The paper's Fig. 6 argument:
    # when the intra-node steps dominate, "overlapping will not help" —
    # only sharing removes them.
    LEADER_OVERLAPPED = "leader_overlapped"


def _concatenate(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)


def _deliver(
    comm: SimComm,
    full: np.ndarray,
    shared_buffers: list[NodeSharedBuffer] | None,
):
    """Write the gathered data to its destination.

    With shared buffers, each node's single copy receives the data; the
    engine hands every rank of the node the same view.  Without them the
    result is one logically-replicated read-only array (ranks never write
    to ``in_queue`` between allgathers, so a single backing array is
    functionally identical to per-rank private copies).
    """
    if shared_buffers is None:
        full.flags.writeable = False
        return full
    if len(shared_buffers) != comm.cluster.nodes:
        raise CommunicationError(
            f"need one shared buffer per node "
            f"({comm.cluster.nodes}), got {len(shared_buffers)}",
            collective="allgather",
        )
    for buf in shared_buffers:
        if buf.data.size != full.size:
            raise CommunicationError(
                f"shared buffer on node {buf.node} has {buf.data.size} words, "
                f"expected {full.size}"
            )
        buf.data[:] = full
    return shared_buffers


def _uniform_times(comm: SimComm, total: float, breakdown: dict) -> CollectiveResult:
    return CollectiveResult(
        data=None,
        rank_times=np.full(comm.num_ranks, total),
        breakdown=breakdown,
    )


def _ring_time(comm: SimComm, part_bytes: float) -> float:
    """Ring allgather over all ranks with node-major rank order."""
    np_ranks = comm.num_ranks
    if np_ranks == 1 or part_bytes == 0:
        return 0.0
    ppn = comm.mapping.ppn
    inter = (
        comm.slowest_node_inter_time(part_bytes, flows=1)
        if comm.cluster.nodes > 1
        else 0.0
    )
    intra = comm.shm_copy_time(part_bytes, max(1, ppn - 1)) if ppn > 1 else 0.0
    step = max(inter, intra)
    return (np_ranks - 1) * step


def _recursive_doubling_time(comm: SimComm, part_bytes: float) -> float:
    np_ranks = comm.num_ranks
    if np_ranks == 1 or part_bytes == 0:
        return 0.0
    if np_ranks & (np_ranks - 1):
        # Non-power-of-two rank counts fall back to ring (as MPICH does
        # with an extra fix-up phase we do not model).
        return _ring_time(comm, part_bytes)
    ppn = comm.mapping.ppn
    total = 0.0
    for k in range(int(np.log2(np_ranks))):
        nbytes = part_bytes * (1 << k)
        if (1 << k) < ppn:
            total += comm.shm_copy_time(nbytes, ppn)
        else:
            total += comm.slowest_node_inter_time(nbytes, flows=min(ppn, 8))
    return total


def _leader_steps(
    comm: SimComm,
    part_bytes: float,
    total_bytes: float,
    *,
    gather: bool,
    bcast: bool,
    parallel: bool,
    subgroups: int | None = None,
) -> dict[str, float]:
    """Per-step times of the leader-based family."""
    ppn = comm.mapping.ppn
    nodes = comm.cluster.nodes
    steps = {"intra_gather": 0.0, "inter": 0.0, "intra_bcast": 0.0}

    if gather and ppn > 1:
        steps["intra_gather"] = comm.shm_copy_time(part_bytes, ppn - 1)

    if nodes > 1:
        if parallel:
            # Fig. 7: concurrent subgroup rings (default: one per rank of
            # a node); each step moves the node block split across the
            # flows, all sharing the node's NICs at the saturated Fig. 4
            # rate.
            flows = ppn if subgroups is None else subgroups
            if flows < 1 or flows > ppn:
                raise CommunicationError(
                    f"subgroups must be in [1, ppn={ppn}], got {flows}"
                )
            block = part_bytes * ppn / flows
            step = comm.slowest_node_inter_time(block, flows=flows)
            steps["inter"] = (nodes - 1) * step
        else:
            node_block = part_bytes * ppn
            step = comm.slowest_node_inter_time(node_block, flows=1)
            steps["inter"] = (nodes - 1) * step

    if bcast and ppn > 1:
        steps["intra_bcast"] = comm.shm_copy_time(total_bytes, ppn - 1)
    return steps


def parallel_allgather_time(
    comm: SimComm,
    part_bytes: float,
    subgroups: int,
) -> float:
    """Inter-node time of the Fig. 7 scheme with a configurable subgroup
    count (the ablation knob): ``subgroups`` concurrent flows per node,
    each carrying ``1/subgroups`` of the node block per ring step.  With
    ``subgroups == 1`` this degenerates to the single-leader step; with
    ``subgroups == ppn`` it is the paper's parallel allgather."""
    if subgroups < 1 or subgroups > comm.mapping.ppn:
        raise CommunicationError(
            f"subgroups must be in [1, ppn={comm.mapping.ppn}]"
        )
    nodes = comm.cluster.nodes
    if nodes <= 1 or part_bytes <= 0:
        return 0.0
    block = part_bytes * comm.mapping.ppn / subgroups
    step = comm.slowest_node_inter_time(block, flows=subgroups)
    return (nodes - 1) * step


def allgather_time(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
    *,
    subgroups: int | None = None,
) -> tuple[float, dict[str, float]]:
    """Simulated time of an allgather without moving any data.

    This is the closed-form used both by :func:`allgather` during a
    functional run and by the paper-scale extrapolation in
    :mod:`repro.model`, which replays the same message schedule with the
    structure sizes of a larger graph.  When a frontier codec shrank the
    payload, callers pass the *wire* part/total bytes here and charge the
    encode/decode terms separately (see
    :meth:`SimComm.codec_model <repro.machine.costmodel.CodecCostModel>`).
    ``subgroups`` tunes the parallel-shared ring count (None = ppn).
    """
    if part_bytes < 0:
        raise CommunicationError("negative part size")
    if total_bytes is None:
        total_bytes = part_bytes * comm.num_ranks

    if algorithm is AllgatherAlgorithm.DEFAULT:
        algorithm = (
            AllgatherAlgorithm.RING
            if total_bytes >= _RING_THRESHOLD_BYTES
            else AllgatherAlgorithm.RECURSIVE_DOUBLING
        )

    if algorithm is AllgatherAlgorithm.RING:
        t = _ring_time(comm, part_bytes)
        return t, {"ring": t}
    if algorithm is AllgatherAlgorithm.RECURSIVE_DOUBLING:
        t = _recursive_doubling_time(comm, part_bytes)
        return t, {"recursive_doubling": t}
    if algorithm is AllgatherAlgorithm.LEADER:
        steps = _leader_steps(
            comm, part_bytes, total_bytes, gather=True, bcast=True, parallel=False
        )
    elif algorithm is AllgatherAlgorithm.SHARED_IN:
        steps = _leader_steps(
            comm, part_bytes, total_bytes, gather=True, bcast=False, parallel=False
        )
    elif algorithm is AllgatherAlgorithm.SHARED_ALL:
        steps = _leader_steps(
            comm, part_bytes, total_bytes, gather=False, bcast=False, parallel=False
        )
    elif algorithm is AllgatherAlgorithm.PARALLEL_SHARED:
        steps = _leader_steps(
            comm, part_bytes, total_bytes, gather=False, bcast=False, parallel=True
        )
    elif algorithm is AllgatherAlgorithm.LEADER_OVERLAPPED:
        plain = _leader_steps(
            comm, part_bytes, total_bytes, gather=True, bcast=True, parallel=False
        )
        intra = plain["intra_gather"] + plain["intra_bcast"]
        overlapped = max(intra, plain["inter"])
        steps = {
            "intra_gather": 0.0,
            "inter": 0.0,
            "intra_bcast": 0.0,
            "overlapped": overlapped,
        }
    elif algorithm is AllgatherAlgorithm.MULTI_LEADER:
        # Every per-socket leader receives the full payload: per ring
        # step all ppn flows of a node carry a full node block each.
        steps = {"intra_gather": 0.0, "inter": 0.0, "intra_bcast": 0.0}
        nodes = comm.cluster.nodes
        ppn = comm.mapping.ppn
        if nodes > 1 and part_bytes > 0:
            node_block = part_bytes * ppn
            steps["inter"] = (nodes - 1) * comm.slowest_node_inter_time(
                node_block, flows=min(ppn, 8)
            )
    else:  # pragma: no cover - exhaustive enum
        raise CommunicationError(f"unknown algorithm {algorithm!r}")
    return sum(steps.values()), steps


def allgather_channel_bytes(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
    *,
    subgroups: int | None = None,
) -> dict[str, float]:
    """Bytes each channel class carries during one allgather.

    Returns ``{"intra": ..., "inter": ...}`` — the aggregate payload that
    crosses shared-memory copies resp. InfiniBand links under the
    algorithm's message schedule.  Unlike :func:`allgather_time` this sums
    *volume*, not time, so it exposes the schedule redundancy the paper's
    eq. 2 reasons about (the leader broadcast re-moves the full payload on
    every node; multi-leader multiplies the inter-node volume by ppn).
    Callers pass wire (post-codec) sizes to see what compression saved.
    """
    if part_bytes < 0:
        raise CommunicationError("negative part size")
    np_ranks = comm.num_ranks
    ppn = comm.mapping.ppn
    nodes = comm.cluster.nodes
    if total_bytes is None:
        total_bytes = part_bytes * np_ranks
    out = {"intra": 0.0, "inter": 0.0}
    if np_ranks == 1 or total_bytes == 0:
        return out

    if algorithm is AllgatherAlgorithm.DEFAULT:
        algorithm = (
            AllgatherAlgorithm.RING
            if total_bytes >= _RING_THRESHOLD_BYTES
            else AllgatherAlgorithm.RECURSIVE_DOUBLING
        )
    if algorithm is AllgatherAlgorithm.RECURSIVE_DOUBLING and (
        np_ranks & (np_ranks - 1)
    ):
        algorithm = AllgatherAlgorithm.RING  # mirror the time model's fallback

    if algorithm is AllgatherAlgorithm.RING:
        # Per step every rank forwards one part; in node-major order each
        # node boundary is crossed exactly once per step.
        inter_sends = nodes if nodes > 1 else 0
        out["inter"] = (np_ranks - 1) * inter_sends * part_bytes
        out["intra"] = (np_ranks - 1) * (np_ranks - inter_sends) * part_bytes
        return out
    if algorithm is AllgatherAlgorithm.RECURSIVE_DOUBLING:
        # Doubling rounds below ppn stay on-node; each round every rank
        # exchanges its accumulated 2^k parts.
        out["intra"] = np_ranks * (ppn - 1) * part_bytes
        out["inter"] = np_ranks * (np_ranks - ppn) * part_bytes
        return out

    gather = algorithm in (
        AllgatherAlgorithm.LEADER,
        AllgatherAlgorithm.SHARED_IN,
        AllgatherAlgorithm.LEADER_OVERLAPPED,
    )
    bcast = algorithm in (
        AllgatherAlgorithm.LEADER,
        AllgatherAlgorithm.LEADER_OVERLAPPED,
    )
    if gather and ppn > 1:
        out["intra"] += nodes * (ppn - 1) * part_bytes
    if nodes > 1:
        # Leader-family inter step is a ring over node blocks: every node
        # forwards each of the other nodes' blocks once (eq. 2 volume);
        # multi-leader repeats that on all ppn per-socket leaders.
        inter = (nodes - 1) * nodes * part_bytes * ppn
        if algorithm is AllgatherAlgorithm.MULTI_LEADER:
            inter *= ppn
        out["inter"] = inter
    if bcast and ppn > 1:
        out["intra"] += nodes * (ppn - 1) * total_bytes
    return out


def allgather(
    comm: SimComm,
    parts: list[np.ndarray],
    algorithm: AllgatherAlgorithm = AllgatherAlgorithm.DEFAULT,
    shared_buffers: list[NodeSharedBuffer] | None = None,
    *,
    codec: FrontierCodec | None = None,
    visited_parts: list[np.ndarray] | None = None,
    subgroups: int | None = None,
) -> CollectiveResult:
    """Allgatherv of per-rank word arrays under a given algorithm.

    Returns a :class:`CollectiveResult` whose ``data`` is either the full
    concatenated (read-only) array or, when ``shared_buffers`` are passed,
    the list of filled per-node buffers.  ``breakdown`` holds per-step
    times for the leader-based family (Fig. 6).

    With a non-identity ``codec``, the rank parts are encoded before the
    (priced) transmission and decoded on arrival — the delivered data is
    the round-tripped decode, so a lossy codec would corrupt the run
    rather than silently fake its traffic.  One ``encode`` and one
    ``decode`` call cover every part (the concatenated words, split at
    the parts' word offsets); each part keeps its own payload and framing
    byte, and the schedule is priced at the largest and the summed part
    wire sizes.  ``visited_parts`` gives the sieve codec its
    common-knowledge mask (one word array per rank, aligned with
    ``parts``).  An :class:`~repro.mpi.codecs.AutoCodec` resolves to a
    concrete codec per call from observed frontier density and the
    machine's wire/CPU cost slopes; the identity choice is free.
    Without a codec, or with ``raw``, the parts are only concatenated.
    """
    if len(parts) != comm.num_ranks:
        raise CommunicationError(
            f"allgather expects {comm.num_ranks} parts, got {len(parts)}",
            collective="allgather",
        )
    if visited_parts is not None and len(visited_parts) != len(parts):
        raise CommunicationError(
            f"visited_parts must align with parts "
            f"({len(parts)}), got {len(visited_parts)}",
            collective="allgather",
        )
    shared_family = algorithm in (
        AllgatherAlgorithm.SHARED_IN,
        AllgatherAlgorithm.SHARED_ALL,
        AllgatherAlgorithm.PARALLEL_SHARED,
        AllgatherAlgorithm.MULTI_LEADER,
    )
    if shared_family and shared_buffers is None:
        raise CommunicationError(
            f"{algorithm.value} allgather requires node-shared destination "
            f"buffers",
            collective="allgather",
        )

    part_bytes = float(max((p.nbytes for p in parts), default=0))
    total_bytes = float(sum(p.nbytes for p in parts))
    full = _concatenate(parts)
    coded = codec is not None and not codec.is_identity and total_bytes > 0
    visited = (
        _concatenate(visited_parts)
        if coded and visited_parts is not None
        else None
    )

    chosen = codec
    if isinstance(codec, AutoCodec) and coded:
        t_full, _ = allgather_time(
            comm, algorithm, part_bytes, total_bytes, subgroups=subgroups
        )
        t_zero, _ = allgather_time(comm, algorithm, 0.0, 0.0, subgroups=subgroups)
        chosen = codec.select(
            nbits=int(total_bytes) * 8,
            set_bits=int(bitops.popcount_words(full).sum()),
            visited_bits=(
                int(bitops.popcount_words(visited).sum())
                if visited is not None
                else 0
            ),
            ns_per_wire_byte=max(0.0, (t_full - t_zero) / total_bytes),
            model=comm.codec_model,
        )

    codec_name = None if chosen is None else chosen.name
    wire_part = part_bytes
    wire_total = total_bytes
    breakdown_extra: dict[str, float] = {}
    if coded and not chosen.is_identity:
        # One encode and one decode cover every rank's part; each part
        # is framed and priced on its own.
        bounds = segment_offsets(np.array([p.size for p in parts]))
        enc = chosen.encode(full, bounds=bounds, visited=visited)
        full = chosen.decode(enc, visited=visited)
        part_wire = enc.part_wire_nbytes
        wire_part = float(part_wire.max())
        wire_total = float(part_wire.sum())
        # Encode happens on every rank concurrently over its own part
        # (bounded by the largest); decode scans the full gathered
        # payload once per rank.
        breakdown_extra["codec_encode"] = comm.codec_model.encode_time_ns(part_bytes)
        breakdown_extra["codec_decode"] = comm.codec_model.decode_time_ns(wire_total)

    t, breakdown = allgather_time(
        comm, algorithm, wire_part, wire_total, subgroups=subgroups
    )
    breakdown.update(breakdown_extra)
    t += sum(breakdown_extra.values())
    if comm.injector is not None:
        # Fault hooks, in wire order: a transient failure wastes the
        # whole priced attempt (raises; the engine retries and charges
        # the retransmission), and scheduled payload corruption flips
        # bits in the delivered words — caught downstream by the
        # engine's frontier checksums, never silently accepted.
        comm.injector.collective_attempt("allgather", wasted_ns=t)
        full = comm.injector.maybe_corrupt("allgather", full)
    data = _deliver(comm, full, shared_buffers if shared_family else None)
    result = _uniform_times(comm, t, breakdown)
    result.data = data
    result.raw_bytes = total_bytes
    result.wire_bytes = wire_total
    result.wire_part_bytes = wire_part
    result.codec = codec_name
    if comm.tracer.enabled:
        channels = allgather_channel_bytes(
            comm, algorithm, wire_part, wire_total, subgroups=subgroups
        )
        comm.tracer.comm_event(
            "allgather",
            nbytes=total_bytes,
            rank_times=result.rank_times,
            breakdown=breakdown,
            algorithm=algorithm.value,
            part_bytes=part_bytes,
            shared=shared_family,
            raw_bytes=total_bytes,
            wire_bytes=wire_total,
            codec=codec_name,
            intra_bytes=channels["intra"],
            inter_bytes=channels["inter"],
        )
    return result
