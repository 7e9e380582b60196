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

Each algorithm's schedule is written once, as a step table
(``_schedule``): per step its channel, flows, aggregate intra- and
inter-node bytes and time, with a non-raw codec's encode and decode
steps appended.  :func:`allgather_time` sums its times,
:func:`allgather_channel_bytes` its bytes per channel, and
:func:`repro.mpi.schedule.explain_allgather` renders it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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


class _Step(NamedTuple):
    """One row of an allgather's step table (Figs. 5a, 5b and 7)."""

    name: str  # the breakdown key
    channel: str  # "intra" | "inter" | "both" | "none" | "cpu" (codec)
    flows: int  # concurrent transfers per node the step is priced at
    intra_bytes: float  # aggregate bytes through shared-memory copies
    inter_bytes: float  # aggregate bytes over InfiniBand
    time_ns: float


def _ring(comm: SimComm, name: str, part_bytes: float) -> _Step:
    """Ring allgather over all ranks with node-major rank order: per
    step every rank forwards one part, and each node boundary is crossed
    once (one inter flow and ppn - 1 intra copies per node)."""
    np_ranks = comm.num_ranks
    ppn = comm.mapping.ppn
    nodes = comm.cluster.nodes
    inter_sends = nodes if nodes > 1 else 0
    inter = (
        comm.slowest_node_inter_time(part_bytes, flows=1) if nodes > 1 else 0.0
    )
    intra = comm.shm_copy_time(part_bytes, max(1, ppn - 1)) if ppn > 1 else 0.0
    return _Step(
        name, "both", ppn,
        (np_ranks - 1) * (np_ranks - inter_sends) * part_bytes,
        (np_ranks - 1) * inter_sends * part_bytes,
        (np_ranks - 1) * max(inter, intra),
    )


def _recursive_doubling(comm: SimComm, part_bytes: float) -> _Step:
    """log2(np) pairwise rounds; rounds below ppn stay on-node, and each
    round every rank exchanges its accumulated 2^k parts."""
    np_ranks = comm.num_ranks
    ppn = comm.mapping.ppn
    t = 0.0
    for k in range(np_ranks.bit_length() - 1):
        nbytes = part_bytes * (1 << k)
        if (1 << k) < ppn:
            t += comm.shm_copy_time(nbytes, ppn)
        else:
            t += comm.slowest_node_inter_time(nbytes, flows=min(ppn, 8))
    return _Step(
        "recursive_doubling", "both", ppn,
        np_ranks * (ppn - 1) * part_bytes,
        np_ranks * (np_ranks - ppn) * part_bytes,
        t,
    )


#: The leader-family algorithms that keep the gather resp. the broadcast.
_GATHERS = (
    AllgatherAlgorithm.LEADER,
    AllgatherAlgorithm.SHARED_IN,
    AllgatherAlgorithm.LEADER_OVERLAPPED,
)
_BCASTS = (AllgatherAlgorithm.LEADER, AllgatherAlgorithm.LEADER_OVERLAPPED)
#: The algorithms that deliver into node-shared buffers.
_SHARED_FAMILY = (
    AllgatherAlgorithm.SHARED_IN,
    AllgatherAlgorithm.SHARED_ALL,
    AllgatherAlgorithm.PARALLEL_SHARED,
    AllgatherAlgorithm.MULTI_LEADER,
)

#: The leader family's steps where they move nothing.
_IDLE = {
    name: _Step(name, "none", 0, 0.0, 0.0, 0.0)
    for name in ("intra_gather", "inter", "intra_bcast")
}


def _intra(comm: SimComm, name: str, nbytes: float, copies: int) -> _Step:
    """A leader's on-node step: ``copies`` children each copy ``nbytes``
    to (gather) or from (broadcast) the leader; idle when nothing moves."""
    if copies < 1 or nbytes <= 0:
        return _IDLE[name]
    return _Step(
        name, "intra", copies,
        comm.cluster.nodes * copies * nbytes, 0.0,
        comm.shm_copy_time(nbytes, copies),
    )


def _leader_family(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float,
    subgroups: int | None,
) -> tuple[_Step, ...]:
    """Gather to the node leader, an inter-node ring over node blocks,
    broadcast to the children — minus the steps sharing removes."""
    ppn = comm.mapping.ppn
    nodes = comm.cluster.nodes
    block = part_bytes * ppn
    flows, replicas = 1, 1
    if algorithm is AllgatherAlgorithm.PARALLEL_SHARED:
        # Fig. 7: concurrent subgroup rings (default: one per rank of a
        # node) each carry 1/flows of the node block, all sharing the
        # node's NICs at the saturated Fig. 4 rate.
        flows = ppn if subgroups is None else subgroups
        block /= flows
    elif algorithm is AllgatherAlgorithm.MULTI_LEADER:
        # Every per-socket leader receives the full payload: all ppn
        # flows of a node carry a whole node block each.
        flows, replicas = min(ppn, 8), ppn
    steps = (
        _intra(
            comm, "intra_gather", part_bytes,
            ppn - 1 if algorithm in _GATHERS else 0,
        ),
        # Eq. 2: every node forwards each other node's block once.
        _Step(
            "inter", "inter", flows, 0.0,
            (nodes - 1) * nodes * part_bytes * ppn * replicas,
            (nodes - 1) * comm.slowest_node_inter_time(block, flows=flows),
        ),
        _intra(
            comm, "intra_bcast", total_bytes,
            ppn - 1 if algorithm in _BCASTS else 0,
        ),
    )
    if algorithm is not AllgatherAlgorithm.LEADER_OVERLAPPED:
        return steps
    # HierKNEM-style perfect overlap: one step that ends when the slower
    # of the intra (gather + broadcast) and inter sides does.
    gather_step, inter_step, bcast_step = steps
    return tuple(_IDLE.values()) + (
        _Step(
            "overlapped", "both", ppn,
            gather_step.intra_bytes + bcast_step.intra_bytes,
            inter_step.inter_bytes,
            max(gather_step.time_ns + bcast_step.time_ns, inter_step.time_ns),
        ),
    )


def _schedule(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
    subgroups: int | None = None,
    raw_part_bytes: float | None = None,
) -> tuple[_Step, ...]:
    """The step table of one allgather of ``part_bytes`` per rank
    (``total_bytes`` in all, default ``part_bytes x ranks``).

    ``subgroups`` sets the parallel-shared ring count (None = ppn).  When
    a codec shrank the payload, ``part_bytes``/``total_bytes`` are the
    wire sizes and ``raw_part_bytes`` the largest raw part: the table
    then ends with the encode (of the raw part) and decode (of the wire
    total) steps.
    """
    if part_bytes < 0:
        raise CommunicationError("negative part size")
    np_ranks = comm.num_ranks
    ppn = comm.mapping.ppn
    if subgroups is not None and not 1 <= subgroups <= ppn:
        raise CommunicationError(
            f"subgroups must be in [1, ppn={ppn}], got {subgroups}"
        )
    if total_bytes is None:
        total_bytes = part_bytes * np_ranks
    if algorithm is AllgatherAlgorithm.DEFAULT:
        algorithm = (
            AllgatherAlgorithm.RING
            if total_bytes >= _RING_THRESHOLD_BYTES
            else AllgatherAlgorithm.RECURSIVE_DOUBLING
        )
    if algorithm is AllgatherAlgorithm.RING or (
        algorithm is AllgatherAlgorithm.RECURSIVE_DOUBLING
        and np_ranks & (np_ranks - 1)
    ):
        # Non-power-of-two rank counts fall back to ring (as MPICH does
        # with an extra fix-up phase we do not model).
        steps = (_ring(comm, algorithm.value, part_bytes),)
    elif algorithm is AllgatherAlgorithm.RECURSIVE_DOUBLING:
        steps = (_recursive_doubling(comm, part_bytes),)
    else:
        steps = _leader_family(
            comm, algorithm, part_bytes, total_bytes, subgroups
        )
    if raw_part_bytes is None:
        return steps
    # Every rank encodes its own part concurrently (bounded by the
    # largest) and decodes the whole gathered payload.
    model = comm.codec_model
    encode = model.encode_time_ns(raw_part_bytes)
    decode = model.decode_time_ns(total_bytes)
    return steps + (
        _Step("codec_encode", "cpu", 0, 0.0, 0.0, encode),
        _Step("codec_decode", "cpu", 0, 0.0, 0.0, decode),
    )


def _priced(steps: tuple[_Step, ...]) -> tuple[float, dict[str, float]]:
    """Total and per-step times; the codec's CPU steps are summed apart,
    so the total is transfer + (encode + decode)."""
    transfer = codec = 0.0
    breakdown = {}
    for step in steps:
        if step.channel == "cpu":
            codec += step.time_ns
        else:
            transfer += step.time_ns
        breakdown[step.name] = step.time_ns
    return transfer + codec, breakdown


def _channel_bytes(steps: tuple[_Step, ...]) -> dict[str, float]:
    return {
        "intra": sum(s.intra_bytes for s in steps),
        "inter": sum(s.inter_bytes for s in steps),
    }


def allgather_time(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
    *,
    subgroups: int | None = None,
    raw_part_bytes: float | None = None,
) -> tuple[float, dict[str, float]]:
    """Simulated time of an allgather without moving any data:
    ``(total ns, {step: ns})``.

    This is the closed-form used by :func:`allgather` during a functional
    run, by the pricer that assembles a run's timing and by the
    paper-scale extrapolation in :mod:`repro.model`, which replays the
    same message schedule with the structure sizes of a larger graph.
    When a frontier codec shrank the payload, callers pass the *wire*
    part/total bytes and the largest raw part as ``raw_part_bytes``; the
    codec's ``codec_encode``/``codec_decode`` steps are then included
    (see :class:`~repro.machine.costmodel.CodecCostModel`).
    ``subgroups`` tunes the parallel-shared ring count (None = ppn).
    """
    return _priced(_schedule(
        comm, algorithm, part_bytes, total_bytes, subgroups, raw_part_bytes
    ))


def allgather_channel_bytes(
    comm: SimComm,
    algorithm: AllgatherAlgorithm,
    part_bytes: float,
    total_bytes: float | None = None,
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
    return _channel_bytes(_schedule(comm, algorithm, part_bytes, total_bytes))


def allgather(
    comm: SimComm,
    parts: list[np.ndarray],
    algorithm: AllgatherAlgorithm = AllgatherAlgorithm.DEFAULT,
    shared_buffers: list[NodeSharedBuffer] | None = None,
    *,
    codec: FrontierCodec | None = None,
    visited_parts: list[np.ndarray] | None = None,
) -> CollectiveResult:
    """Allgatherv of per-rank word arrays under a given algorithm.

    Returns a :class:`CollectiveResult` whose ``data`` is either the full
    concatenated (read-only) array or, when ``shared_buffers`` are passed,
    the list of filled per-node buffers.  ``breakdown`` holds the
    schedule's per-step times (Fig. 6).

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
    shared_family = algorithm in _SHARED_FAMILY
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
        t_full, _ = allgather_time(comm, algorithm, part_bytes, total_bytes)
        chosen = codec.select(
            nbits=int(total_bytes) * 8,
            set_bits=int(bitops.popcount_words(full).sum()),
            visited_bits=(
                int(bitops.popcount_words(visited).sum())
                if visited is not None
                else 0
            ),
            ns_per_wire_byte=t_full / total_bytes,
            model=comm.codec_model,
        )

    codec_name = None if chosen is None else chosen.name
    wire_part = part_bytes
    wire_total = total_bytes
    raw_part = None
    if coded and not chosen.is_identity:
        # One encode and one decode cover every rank's part; each part
        # is framed and priced on its own.
        bounds = segment_offsets(np.array([p.size for p in parts]))
        enc = chosen.encode(full, bounds=bounds, visited=visited)
        full = chosen.decode(enc, visited=visited)
        part_wire = enc.part_wire_nbytes
        wire_part = float(part_wire.max())
        wire_total = float(part_wire.sum())
        raw_part = part_bytes

    steps = _schedule(comm, algorithm, wire_part, wire_total, None, raw_part)
    t, breakdown = _priced(steps)
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
        channels = _channel_bytes(steps)
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
