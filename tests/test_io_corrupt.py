"""Graph archive robustness: truncated/corrupt files raise GraphError.

A damaged ``.npz`` must never surface as a numpy/zipfile traceback or —
worse — a silently wrong graph: every failure mode maps to a
:class:`~repro.errors.GraphError` carrying the file, the damaged member
and its byte offset.
"""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import builder
from repro.graph.io import (
    load_edge_list,
    load_graph,
    save_edge_list,
    save_graph,
)
from repro.graph.rmat import rmat_graph
from repro.graph.types import EdgeList


@pytest.fixture()
def graph_file(tmp_path):
    graph = rmat_graph(10, seed=1)
    path = tmp_path / "graph.npz"
    save_graph(path, graph)
    return path, graph


def test_round_trip_still_works(graph_file):
    path, graph = graph_file
    loaded = load_graph(path)
    assert loaded.num_vertices == graph.num_vertices
    assert np.array_equal(loaded.offsets, graph.offsets)
    assert np.array_equal(loaded.targets, graph.targets)


def test_truncated_archive(graph_file):
    path, _ = graph_file
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    exc = ei.value
    assert "truncated" in str(exc) or "not a readable" in str(exc)
    assert exc.context["file_bytes"] == len(raw) // 2
    json.dumps(exc.to_dict())


@pytest.mark.parametrize("damage", ["truncated", "not-a-zip"])
def test_damaged_archive_leaves_no_open_file(graph_file, damage):
    """A failed load closes the archive: nothing is left for the garbage
    collector to warn about."""
    path, _ = graph_file
    raw = path.read_bytes()
    junk = raw[: len(raw) // 2] if damage == "truncated" else b"\x00" * 100
    path.write_bytes(junk)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(GraphError):
            load_graph(path)
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_corrupt_member_reports_byte_offset(graph_file):
    path, _ = graph_file
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # flip a byte mid-archive, keep the size
    path.write_bytes(bytes(raw))
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    ctx = ei.value.context
    assert "member" in ctx
    assert ctx.get("byte_offset", -1) >= 0


def test_missing_file_keeps_oserror(tmp_path):
    # a missing file is not a damaged one: the usual error passes through
    with pytest.raises(FileNotFoundError):
        load_edge_list(tmp_path / "missing.npz")


def test_not_a_zip(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    assert ei.value.context["file_bytes"] == 100


def test_wrong_kind(tmp_path):
    path = tmp_path / "edges.npz"
    save_edge_list(
        path,
        EdgeList(
            num_vertices=64,
            sources=np.array([0, 1], dtype=np.int64),
            targets=np.array([1, 2], dtype=np.int64),
        ),
    )
    with pytest.raises(GraphError):
        load_graph(path)


def test_missing_member(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez_compressed(
        path,
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(64),
        offsets=np.zeros(65, dtype=np.int64),
        # no 'targets', no 'meta'
    )
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    assert ei.value.context["member"] in ("targets", "meta")


def test_inconsistent_csr_offsets(tmp_path):
    path = tmp_path / "bad_offsets.npz"
    offsets = np.zeros(65, dtype=np.int64)
    offsets[-1] = 99  # claims 99 adjacency entries; array below has 4
    np.savez_compressed(
        path,
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(64),
        offsets=offsets,
        targets=np.array([1, 2, 3, 4], dtype=np.int64),
        meta=np.bytes_(b"{}"),
    )
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    assert "adjacency" in str(ei.value)


def test_non_monotonic_csr_offsets(tmp_path):
    path = tmp_path / "decreasing.npz"
    offsets = np.zeros(65, dtype=np.int64)
    offsets[1] = 3
    offsets[2] = 1  # decreases
    offsets[-1] = 4
    np.savez_compressed(
        path,
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(64),
        offsets=offsets,
        targets=np.array([1, 2, 3, 4], dtype=np.int64),
        meta=np.bytes_(b"{}"),
    )
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    assert "decrease" in str(ei.value)


def test_corrupt_meta_json(tmp_path):
    path = tmp_path / "bad_meta.npz"
    np.savez_compressed(
        path,
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(64),
        offsets=np.zeros(65, dtype=np.int64),
        targets=np.zeros(0, dtype=np.int64),
        meta=np.bytes_(b"{not json"),
    )
    with pytest.raises(GraphError) as ei:
        load_graph(path)
    assert ei.value.context["member"] == "meta"


def test_edge_list_shape_mismatch(tmp_path):
    path = tmp_path / "ragged.npz"
    np.savez_compressed(
        path,
        kind=np.bytes_(b"edge_list"),
        num_vertices=np.int64(64),
        sources=np.array([0, 1, 2], dtype=np.int64),
        targets=np.array([1, 2], dtype=np.int64),
    )
    with pytest.raises(GraphError) as ei:
        load_edge_list(path)
    assert "equal-length" in str(ei.value)


def _write_csr(path, rows):
    """A hand-made CSR archive: ``rows[u]`` lists u's stored targets."""
    np.savez_compressed(
        path,
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(len(rows)),
        offsets=np.cumsum([0] + [len(r) for r in rows]).astype(np.int64),
        targets=np.array([v for r in rows for v in r], dtype=np.int64),
        meta=np.bytes_(b"{}"),
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1], [0], [3], []], "not symmetric"),  # 2 -> 3, no 3 -> 2
        ([[1], [0], [], [2]], "not symmetric"),  # 3 -> 2, no 2 -> 3
        # 0 -> 2 and 2 -> 1 balance up and down arcs, but neither has
        # its reverse.
        ([[2], [], [1], []], "not symmetric"),
        ([[1], [0, 4], [], []], "outside"),
        ([[2, 1], [0], [0], []], "not sorted"),
        ([[1, 1], [0, 0], [], []], "not sorted/deduplicated"),
        ([[0, 1], [0], [], []], "self loops"),
    ],
    ids=[
        "one-way-up", "one-way-down", "crossed", "out-of-range", "unsorted",
        "duplicate", "loop",
    ],
)
def test_malformed_csr_is_rejected(tmp_path, rows, message):
    path = tmp_path / "bad_csr.npz"
    _write_csr(path, rows)
    with pytest.raises(GraphError, match=message) as ei:
        load_graph(path)
    assert ei.value.context["path"] == str(path)
    assert str(path) in str(ei.value)


@pytest.mark.parametrize("block", [7, 1 << 20])
def test_rmat_round_trip_passes_the_structure_checks(
    tmp_path, monkeypatch, block
):
    """A 7-arc block makes every check cross block and row boundaries."""
    monkeypatch.setattr(builder, "_BLOCK", block)
    graph = rmat_graph(9, seed=5)
    path = tmp_path / "rmat.npz"
    save_graph(path, graph)
    loaded = load_graph(path)
    assert np.array_equal(loaded.offsets, graph.offsets)
    assert np.array_equal(loaded.targets, graph.targets)
