"""Columnar counts against the per-level formulas.

``RunCounts.scaled`` and ``timing.assemble`` work on whole columns.  The
reference here scales and prices one level at a time, with the
formulas a level has always been scaled and priced by, and every
column, row field and priced number must match it bit for bit.
"""

import dataclasses
import functools
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, CommConfig, StructureSizes
from repro.core.counts import Direction, LevelCounts, RunCounts
from repro.core.timing import BfsTiming, CostConstants, _pricer, assemble
from repro.machine import paper_cluster
from repro.mpi import BindingPolicy, ProcessMapping, SimComm

#: (nodes, ppn): 1 to 128 ranks.
LAYOUTS = [(1, 1), (2, 1), (4, 1), (1, 8), (2, 8), (4, 8), (16, 8)]


@functools.lru_cache(maxsize=None)
def make_comm(nodes: int, ppn: int) -> SimComm:
    cluster = paper_cluster(nodes=nodes)
    policy = BindingPolicy.INTERLEAVE if ppn == 1 else BindingPolicy.BIND_TO_SOCKET
    return SimComm(cluster, ProcessMapping(cluster, ppn=ppn, policy=policy))


# ---- the per-level reference ------------------------------------------------


def ref_scaled_level(lc: LevelCounts, factor: float) -> dict:
    """One level scaled alone."""
    shrink = np.sqrt(factor)

    def s(arr):
        mean = arr.mean()
        scaled = mean * factor + (arr - mean) * shrink
        return np.maximum(np.rint(scaled), 0).astype(np.int64)

    td = None
    if lc.td_send_bytes is not None:
        td = lc.td_send_bytes.astype(np.float64)
        n = td.shape[0]
        off = ~np.eye(n, dtype=bool)
        if n > 1:
            mean = td[off].mean()
            td[off] = np.maximum(mean * factor + (td[off] - mean) * shrink, 0)
        td[~off] *= factor
        td = np.rint(td).astype(np.int64)
    out = dataclasses.asdict(lc)
    out.update(
        td_send_bytes=td,
        **{
            name: s(getattr(lc, name))
            for name in ("frontier_local", "candidates", "examined_edges",
                         "inqueue_reads", "discovered")
        },
        **{
            name: getattr(lc, name) * factor
            for name in ("inq_part_words", "summary_part_words",
                         "inq_raw_total_bytes", "inq_wire_part_bytes",
                         "inq_wire_total_bytes", "summary_raw_total_bytes",
                         "summary_wire_part_bytes", "summary_wire_total_bytes")
        },
    )
    return out


def ref_assemble(counts: RunCounts, comm, config, sizes) -> BfsTiming:
    """Every level priced alone, folded into the breakdown in order."""
    pricer = _pricer(comm, config, sizes, CostConstants())
    timing = BfsTiming()
    bd = timing.breakdown
    for lc in counts.levels:
        f = lambda a: a.astype(np.float64)[None]  # noqa: E731
        if lc.direction == Direction.TOP_DOWN:
            row = pricer.top_down_compute(
                f(lc.examined_edges), f(lc.frontier_local),
                lc.td_send_bytes[None],
            )[0]
            (comm_t, steps), = pricer.top_down_comm(
                lc.td_send_bytes[None], [lc.allreduces]
            )
        else:
            row = pricer.bottom_up_compute(
                f(lc.examined_edges), f(lc.candidates), f(lc.inqueue_reads)
            )[0]
            comm_t, steps = pricer.bottom_up_comm(
                codec=lc.codec, allreduces=lc.allreduces,
                inq_part_words=lc.inq_part_words,
                summary_part_words=lc.summary_part_words,
                inq_wire_part_bytes=lc.inq_wire_part_bytes,
                inq_wire_total_bytes=lc.inq_wire_total_bytes,
                summary_wire_part_bytes=lc.summary_wire_part_bytes,
                summary_wire_total_bytes=lc.summary_wire_total_bytes,
            )
        row = row * pricer.omp_penalty
        mean, peak = float(row.mean()), float(row.max())
        switch = 0.0
        if lc.switched:
            vertices = float(lc.frontier_local.max(initial=0))
            switch = sizes.out_part_bytes / pricer.graph_stream_bw * 1e9 + (
                vertices * pricer.c.cycles_per_switch_vertex
                / (pricer.threads * pricer.socket.frequency_hz) * 1e9
            )
        if lc.direction == Direction.TOP_DOWN:
            bd.td_compute += mean
            bd.td_comm += comm_t
        else:
            bd.bu_compute += mean
            bd.bu_comm += comm_t
        bd.switch += switch
        bd.stall += peak - mean
        timing.levels.append((lc.level, lc.direction, row, mean, peak,
                              comm_t, switch, peak - mean, steps))
    return timing


# ---- random counts ------------------------------------------------------------


@st.composite
def run_counts(draw):
    nodes, ppn = draw(st.sampled_from(LAYOUTS))
    r = nodes * ppn
    levels = draw(st.integers(1, 6))
    pattern = draw(st.sampled_from(["top_down", "bottom_up", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    whole_words = draw(st.booleans())
    rows = []
    prev = None
    for _ in range(levels):
        td = pattern == "top_down" or (pattern == "mixed" and rng.random() < 0.5)
        row = dict(
            direction=Direction.TOP_DOWN if td else Direction.BOTTOM_UP,
            switched=prev is not None and prev != td,
            allreduces=3,
            **{
                name: rng.integers(0, 10 ** int(rng.integers(1, 7)), r)
                for name in ("frontier_local", "candidates", "examined_edges",
                             "inqueue_reads", "discovered")
            },
        )
        prev = td
        if td:
            kind = draw(st.sampled_from(["zero", "one-hot", "random"]))
            send = np.zeros((r, r), np.int64)
            if kind == "one-hot":
                send[rng.integers(0, r), rng.integers(0, r)] = rng.integers(1, 1 << 30)
            elif kind == "random":
                send = rng.integers(0, 1 << 20, (r, r))
            rows.append(dict(row, td_send_bytes=send))
            continue
        codec = draw(st.sampled_from([None, "raw", "sparse-index", "sieve"]))
        words = int(rng.integers(1, 1 << 16))
        raw = words * 8.0 * r
        wire = raw if codec in (None, "raw") else float(rng.integers(1, raw))
        rows.append(dict(
            row, codec=codec,
            inq_part_words=words if whole_words else words / 3,
            summary_part_words=words / 64,
            inq_raw_total_bytes=raw, inq_wire_total_bytes=wire,
            inq_wire_part_bytes=wire / r,
            summary_raw_total_bytes=raw / 64,
            summary_wire_total_bytes=wire / 64,
            summary_wire_part_bytes=wire / 64 / r,
        ))
    counts = RunCounts.from_rows(int(rng.integers(64, 1 << 20)), r, rows)
    counts.traversed_edges = int(rng.integers(0, 1 << 20))
    counts.visited_vertices = int(rng.integers(0, 1 << 20))
    return counts, make_comm(nodes, ppn)


def same(a, b) -> bool:
    """Bit-identical values: type, dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


@settings(max_examples=40, deadline=None)
@given(
    drawn=run_counts(),
    factor=st.sampled_from([1.0, 2.0, 3.5, 1024.0, 2.0**17 / 3]),
    summary=st.booleans(),
)
def test_columns_equal_per_level_formulas(drawn, factor, summary):
    counts, comm = drawn
    scaled = counts.scaled(factor)
    assert scaled.num_levels == counts.num_levels
    for lc, got in zip(counts.levels, scaled.levels):
        want = ref_scaled_level(lc, factor)
        for f in dataclasses.fields(LevelCounts):
            assert same(getattr(got, f.name), want[f.name]), (lc.level, f.name)

    config = BFSConfig(comm=CommConfig(use_summary=summary))
    sizes = StructureSizes(
        num_vertices=scaled.num_vertices, num_arcs=32 * scaled.num_vertices,
        num_ranks=counts.num_ranks, granularity=config.granularity,
    )
    got = assemble(scaled, comm, config, sizes)
    want = ref_assemble(scaled, comm, config, sizes)
    assert got.breakdown.as_dict() == want.breakdown.as_dict()
    for lt, ref in zip(got.levels, want.levels, strict=True):
        level, direction, row, mean, peak, comm_t, switch, stall, steps = ref
        assert (lt.level, lt.direction) == (level, direction)
        assert same(lt.compute_rank_ns, row)
        for a, b in ((lt.compute_mean_ns, mean), (lt.compute_max_ns, peak),
                     (lt.comm_ns, comm_t), (lt.switch_ns, switch),
                     (lt.stall_ns, stall)):
            assert same(a, b)
        assert lt.comm_steps == steps


def test_row_views_are_read_only():
    counts = RunCounts.from_rows(64, 2, [
        dict(direction=Direction.TOP_DOWN, frontier_local=np.ones(2, np.int64),
             td_send_bytes=np.ones((2, 2), np.int64)),
        dict(direction=Direction.BOTTOM_UP, examined_edges=np.arange(2),
             inq_part_words=1),
    ])
    top, bottom = counts.levels
    assert bottom.td_send_bytes is None and bottom.inq_part_words == 1
    for arr in (top.frontier_local, top.td_send_bytes, bottom.examined_edges):
        assert not arr.flags.writeable
        with np.testing.assert_raises(ValueError):
            arr[0] = 7
    with np.testing.assert_raises(dataclasses.FrozenInstanceError):
        top.level = 3
    # The columns behind the rows are untouched.
    assert counts.frontier_local[0, 0] == 1
    assert counts.td_send_bytes[0, 0, 0] == 1
