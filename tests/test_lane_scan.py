"""The native 64-lane bottom-up scan against its numpy oracle.

``repro_lane_scan`` (C, ``cnative``) and ``batched.lane_scan`` (numpy,
``reference``/``activeset``) implement one contract; these differential
property tests feed both the same random small CSRs and lane words and
require every accounting field of the :class:`LaneScanResult` to be
equal.  A second property does the same one layer up, through
``bottom_up_scan_batch``, which also covers the C lane-word packing.
(``gathered_edges``/``chunk_rounds`` are schedule diagnostics, never
priced, and differ by construction.)
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import Bitmap, SummaryBitmap
from repro.core.kernels import ActiveSetBackend, CNativeBackend, ReferenceBackend
from repro.core.kernels import cnative
from repro.core.kernels.batched import _lane_dtype, lane_scan

_OK, _REASON = CNativeBackend.availability()
pytestmark = pytest.mark.skipif(
    not _OK, reason=f"no usable C toolchain here: {_REASON}"
)

#: 8/9, 32/33 and 64 straddle the numpy scan's lane-word dtypes.
LANE_COUNTS = st.one_of(
    st.sampled_from([1, 8, 9, 32, 33, 64]), st.integers(1, 64)
)
#: None = summary disabled; 192 is a multiple of 64 but no power of two
#: (the C scan's division path).
GRANULARITIES = st.sampled_from([None, 64, 256, 192])


def random_csr(rng, rows, num_vertices):
    """Random CSR with zero-degree rows, duplicate edges and self-loops."""
    degs = rng.integers(0, 9, rows) * (rng.random(rows) < 0.8)
    offsets = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    targets = rng.integers(0, num_vertices, int(offsets[-1])).astype(np.int64)
    for v in np.flatnonzero(degs >= 2)[:: 3]:
        start = offsets[v]
        targets[start + 1] = targets[start]  # duplicate edge
        if v % 2:
            targets[start] = v  # self-loop
    return SimpleNamespace(offsets=offsets, targets=targets)


def random_words(rng, size, lanes, density):
    """``size`` lane words with each of ``lanes`` bits set w.p. ``density``."""
    bits = rng.random((size, lanes)) < density
    weights = np.uint64(1) << np.arange(lanes, dtype=np.uint64)
    return (bits * weights).sum(axis=1, dtype=np.uint64)


def random_groups(rng, rows, num_groups):
    """Non-decreasing group per row; some groups may own no row."""
    return np.sort(rng.integers(0, num_groups, rows)).astype(np.int64)


def assert_same_result(native, oracle, num_groups):
    cap = oracle.candidates.shape[1]
    for field in ("candidates", "examined_edges", "inqueue_reads"):
        got, want = getattr(native, field), getattr(oracle, field)
        assert got.shape == (num_groups, 64) and got.dtype == np.int64
        assert want.shape == (num_groups, cap)
        assert np.array_equal(got[:, :cap], want), field
        assert not got[:, cap:].any(), field
    for field in ("disc_lane", "disc_local", "disc_parent"):
        got, want = getattr(native, field), getattr(oracle, field)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), field


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 300),
    extra_vertices=st.integers(0, 400),
    lanes=LANE_COUNTS,
    granularity=GRANULARITIES,
    num_groups=st.sampled_from([None, 1, 3, 8]),
    active_density=st.sampled_from([0.02, 0.5, 1.0]),
    frontier_density=st.sampled_from([0.0, 0.03, 0.4]),
    width=st.sampled_from([None, 1, 2]),
)
def test_native_lane_scan_matches_numpy(
    seed, rows, extra_vertices, lanes, granularity, num_groups,
    active_density, frontier_density, width,
):
    rng = np.random.default_rng(seed)
    num_vertices = rows + extra_vertices  # targets are global ids
    lg = random_csr(rng, rows, num_vertices)
    dt = _lane_dtype(lanes)
    act = random_words(rng, rows, lanes, active_density).astype(dt)
    inq = random_words(rng, num_vertices, lanes, frontier_density).astype(dt)
    if granularity is None:
        summary = None
    else:
        # A real summary: a block's lane bit is set iff a vertex's is.
        pad = -num_vertices % granularity
        summary = np.bitwise_or.reduce(
            np.concatenate([inq, np.zeros(pad, dtype=dt)]).reshape(
                -1, granularity
            ),
            axis=1,
        )
    groups = (
        None if num_groups is None else random_groups(rng, rows, num_groups)
    )
    kwargs = {"groups": groups, "num_groups": num_groups or 1}

    oracle = lane_scan(
        lg, act, inq, summary, granularity or 0, initial_width=width, **kwargs
    )
    native = cnative.lane_scan(
        lg, act, inq, summary, granularity or 0, **kwargs
    )
    assert_same_result(native, oracle, num_groups or 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_vertices=st.integers(1, 400),
    sources=st.integers(1, 70),
    lanes=LANE_COUNTS,
    granularity=GRANULARITIES,
    frontier_density=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_backends_agree_on_the_batch_contract(
    seed, num_vertices, sources, lanes, granularity, frontier_density
):
    """``bottom_up_scan_batch`` from parent rows and published bitmaps:
    the C packing + scan equals the numpy packing + scan."""
    rng = np.random.default_rng(seed)
    lanes = min(lanes, sources)
    graph = random_csr(rng, num_vertices, num_vertices)
    parent = np.where(
        rng.random((sources, num_vertices)) < 0.5,
        -1,
        rng.integers(0, num_vertices, (sources, num_vertices)),
    ).astype(np.int64)
    rows = rng.choice(sources, lanes, replace=False).astype(np.int64)
    in_queues, summaries = [], []
    for _ in range(lanes):
        frontier = np.flatnonzero(rng.random(num_vertices) < frontier_density)
        in_queues.append(Bitmap.from_indices(num_vertices, frontier))
        if granularity is not None:
            summaries.append(SummaryBitmap.build(in_queues[-1], granularity))
    groups = random_groups(rng, num_vertices, 4)
    before = parent.copy()

    results = [
        backend.bottom_up_scan_batch(
            graph, parent, rows, in_queues, summaries or None,
            groups=groups, num_groups=4,
        )
        for backend in (ReferenceBackend(), ActiveSetBackend(), CNativeBackend())
    ]
    assert np.array_equal(parent, before), "the scan only reads parent"
    assert_same_result(results[2], results[0], 4)
    assert_same_result(results[2], results[1], 4)
