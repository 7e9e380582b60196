"""Checkpoint/restore round-trip guarantees.

A crash at *any* level, under *any* kernel backend and frontier codec,
with checkpoints living in memory or on disk, must resume to the exact
fault-free run: bit-identical parent tree, identical level counts,
identical simulated nanoseconds.  These tests sweep that matrix and pin
the on-disk ``.npz`` format round trip.
"""

import json
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import BFSConfig
from repro.core.counts import COLUMNS
from repro.core.engine import BFSEngine
from repro.core.hybrid import DirectionPolicy
from repro.core.multisource import MultiSourceEngine
from repro.errors import CheckpointError
from repro.faults import (
    BFSCheckpoint,
    DiskCheckpointStore,
    FaultPlan,
    MemoryCheckpointStore,
    PayloadCorruption,
    RankCrash,
    ResilienceConfig,
)
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster

SCALE = 11
ROOT = 1

KERNELS = ("reference", "activeset")
CODECS = ("raw", "sieve")


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(SCALE, seed=5)


def _config(kernel: str, codec: str) -> BFSConfig:
    cfg = BFSConfig.granularity_variant()
    return replace(
        cfg, kernel=kernel, comm=replace(cfg.comm, codec=codec)
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("codec", CODECS)
def test_crash_at_every_level_resumes_bit_identically(
    graph, kernel, codec, tmp_path
):
    cluster = paper_cluster(nodes=2)
    config = _config(kernel, codec)
    baseline = BFSEngine(graph, cluster, config).run(ROOT)
    assert baseline.levels >= 3  # the sweep must actually cover levels
    for level in range(baseline.levels):
        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=2, level=level),))
        store = DiskCheckpointStore(tmp_path / f"{kernel}-{codec}-{level}")
        result = BFSEngine(
            graph, cluster, config,
            faults=plan,
            resilience=ResilienceConfig(store=store),
        ).run(ROOT)
        assert np.array_equal(result.parent, baseline.parent), (
            kernel, codec, level,
        )
        assert result.levels == baseline.levels
        # Every count column, the send stack included: the rollback
        # truncated the replayed level and nothing else.
        for name in COLUMNS:
            got = getattr(result.counts, name)
            want = getattr(baseline.counts, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (
                kernel, codec, level, name,
            )
        with pytest.raises(ValueError):  # rows are read-only views
            result.counts.levels[level].examined_edges[0] = 1
        assert result.timing.total_ns == baseline.timing.total_ns
        assert result.recovery.rollbacks == 1
        assert result.recovery.replayed_levels == (level,)


@pytest.mark.parametrize("store_kind", ["memory", "disk"])
def test_sparse_checkpoint_cadence(graph, store_kind, tmp_path):
    """checkpoint_every=2: a crash can lose several levels, all replayed."""
    cluster = paper_cluster(nodes=2)
    config = _config("activeset", "raw")
    baseline = BFSEngine(graph, cluster, config).run(ROOT)
    crash_level = 3
    assert baseline.levels > crash_level
    store = (
        MemoryCheckpointStore()
        if store_kind == "memory"
        else DiskCheckpointStore(tmp_path / "sparse")
    )
    plan = FaultPlan(seed=0, crashes=(RankCrash(rank=0, level=crash_level),))
    result = BFSEngine(
        graph, cluster, config,
        faults=plan,
        resilience=ResilienceConfig(checkpoint_every=2, store=store),
    ).run(ROOT)
    assert np.array_equal(result.parent, baseline.parent)
    assert result.timing.total_ns == baseline.timing.total_ns
    # crash at 3, last snapshot at 2 -> levels 2 and 3 were lost
    assert result.recovery.replayed_levels == (2, 3)


def test_corruption_rollback_to_older_snapshot_resumes_bit_identically(graph):
    """checkpoint_every=2: a corrupted allgather at an odd level rolls
    back past the current frontier, so everything the level loop carries
    across levels must be rebuilt from the restored one."""
    cluster = paper_cluster(nodes=2)
    config = _config("activeset", "raw")
    baseline = BFSEngine(graph, cluster, config).run(ROOT)
    bottom_up = [
        lc.level for lc in baseline.counts.levels
        if lc.direction == "bottom_up" and lc.level % 2
    ]
    assert bottom_up
    for level in bottom_up:
        plan = FaultPlan(
            seed=0, corruptions=(PayloadCorruption(level=level, bit_flips=3),)
        )
        result = BFSEngine(
            graph, cluster, config,
            faults=plan,
            resilience=ResilienceConfig(
                checkpoint_every=2, store=MemoryCheckpointStore()
            ),
        ).run(ROOT)
        assert result.recovery.rollbacks == 1, level
        assert np.array_equal(result.parent, baseline.parent), level
        assert result.timing.total_ns == baseline.timing.total_ns, level


def test_checkpoint_npz_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    full = BFSCheckpoint(
        level=4,
        prev_direction="bottom_up",
        policy_direction="top_down",
        policy_finished_bottom_up=True,
        parent=rng.integers(-1, 100, size=96).astype(np.int64),
        unexplored=np.array([7, 0, 123], dtype=np.int64),
        # Rank-major, not ascending: the loop's own top-down order.
        frontier=np.array([5, 1, 40, 90, 70], dtype=np.int64),
        visited_words=rng.integers(0, 2**63, size=6).astype(np.uint64),
    )
    bare = replace(
        full,
        prev_direction=None,
        policy_finished_bottom_up=False,
        frontier=np.zeros(0, dtype=np.int64),
        visited_words=None,
    )
    for name, ckpt in (("full", full), ("bare", bare)):
        path = tmp_path / f"{name}.npz"
        ckpt.save(path)
        loaded = BFSCheckpoint.load(path)
        assert loaded.level == ckpt.level
        assert loaded.prev_direction == ckpt.prev_direction
        assert loaded.policy_direction == ckpt.policy_direction
        assert (
            loaded.policy_finished_bottom_up
            is ckpt.policy_finished_bottom_up
        )
        for field in ("parent", "unexplored", "frontier"):
            a, b = getattr(loaded, field), getattr(ckpt, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, field)
        if ckpt.visited_words is None:
            assert loaded.visited_words is None
        else:
            assert np.array_equal(loaded.visited_words, ckpt.visited_words)
        assert loaded.nbytes == ckpt.nbytes


def test_checkpoint_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a zip archive at all")
    with pytest.raises(CheckpointError):
        BFSCheckpoint.load(path)


def test_checkpoint_load_rejects_format_1(tmp_path):
    """The per-rank archive layout (``parent_{r}``/``frontier_{r}``,
    local frontier ids) is not read back into the global layout."""
    meta = {
        "format": 1,
        "level": 2,
        "prev_direction": "top_down",
        "policy_direction": "top_down",
        "policy_finished_bottom_up": False,
        "num_ranks": 2,
        "unexplored": [5, 6],
        "has_visited": False,
    }
    path = tmp_path / "old.npz"
    np.savez_compressed(
        path,
        meta=np.bytes_(json.dumps(meta).encode("utf-8")),
        parent_0=np.full(4, -1, dtype=np.int64),
        parent_1=np.full(4, -1, dtype=np.int64),
        frontier_0=np.array([1], dtype=np.int64),
        frontier_1=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(CheckpointError, match="format 1.*format 2"):
        BFSCheckpoint.load(path)


def _small_checkpoint(level: int = 1) -> BFSCheckpoint:
    return BFSCheckpoint(
        level=level,
        prev_direction=None,
        policy_direction="top_down",
        policy_finished_bottom_up=False,
        parent=np.arange(8, dtype=np.int64),
        unexplored=np.array([3], dtype=np.int64),
        frontier=np.array([2, 4], dtype=np.int64),
        visited_words=None,
    )


def test_disk_store_prunes_to_keep(tmp_path):
    store = DiskCheckpointStore(tmp_path, keep=2)
    for level in range(5):
        store.put(_small_checkpoint(level))
    remaining = sorted(p.name for p in tmp_path.glob("ckpt_level*.npz"))
    assert remaining == ["ckpt_level00003.npz", "ckpt_level00004.npz"]
    assert store.latest().level == 4
    store.clear()
    assert store.latest() is None


def test_memory_store_keeps_latest():
    store = MemoryCheckpointStore(keep=1)
    for level in range(3):
        store.put(_small_checkpoint(level))
    assert len(store) == 1
    assert store.latest().level == 2


def test_restore_rejects_a_mismatched_shape():
    ckpt = _small_checkpoint()
    policy = DirectionPolicy(BFSConfig())
    with pytest.raises(CheckpointError, match="parent"):
        ckpt.restore(
            policy, np.zeros(9, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )
    with pytest.raises(CheckpointError, match="unexplored"):
        ckpt.restore(
            policy, np.zeros(8, dtype=np.int64), np.zeros(2, dtype=np.int64)
        )


@pytest.fixture(scope="module")
def baselines(graph):
    """The fault-free run per codec, shared by the property test."""
    cluster = paper_cluster(nodes=2)
    return {
        codec: BFSEngine(
            graph, cluster, _config("activeset", codec)
        ).run(ROOT)
        for codec in CODECS
    }


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_recovered_run_equals_fault_free_run(graph, baselines, data):
    """Any cadence, store and codec, one or two crash/corruption faults
    at drawn levels: the recovered run is the fault-free run, and each
    fault replays exactly the levels from the latest snapshot at or
    before it through its own level.  Two faults may roll back to the
    same snapshot, so restoring must leave the stored copy pristine."""
    codec = data.draw(st.sampled_from(CODECS), label="codec")
    every = data.draw(st.integers(1, 3), label="checkpoint_every")
    on_disk = data.draw(st.booleans(), label="on_disk")
    baseline = baselines[codec]
    bottom_up = [
        lc.level for lc in baseline.counts.levels
        if lc.direction == "bottom_up"
    ]
    assert bottom_up
    kinds = data.draw(
        st.lists(st.sampled_from(["crash", "corruption"]), min_size=1,
                 max_size=2),
        label="kinds",
    )
    crashes, corruptions, drawn = [], [], []
    for i, kind in enumerate(kinds):
        # Distinct ranks / flip counts keep two faults at one level
        # distinct specs (each spec fires once).
        if kind == "crash":
            level = data.draw(
                st.integers(0, baseline.levels - 1), label="crash level"
            )
            crashes.append(RankCrash(rank=i, level=level))
        else:
            level = data.draw(
                st.sampled_from(bottom_up), label="corruption level"
            )
            corruptions.append(PayloadCorruption(level=level, bit_flips=i + 1))
        drawn.append((kind, level))
    plan = FaultPlan(
        seed=0, crashes=tuple(crashes), corruptions=tuple(corruptions)
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = DiskCheckpointStore(tmp) if on_disk else MemoryCheckpointStore()
        result = BFSEngine(
            graph, paper_cluster(nodes=2), _config("activeset", codec),
            faults=plan,
            resilience=ResilienceConfig(checkpoint_every=every, store=store),
        ).run(ROOT)
    assert np.array_equal(result.parent, baseline.parent)
    assert result.levels == baseline.levels
    assert result.timing.total_ns == baseline.timing.total_ns
    fired = [(ev["kind"], ev["level"]) for ev in result.recovery.fault_events]
    assert sorted(fired) == sorted(drawn)
    assert result.recovery.rollbacks == len(drawn)
    expected = []
    for _, level in fired:
        expected.extend(range(level - level % every, level + 1))
    assert result.recovery.replayed_levels == tuple(expected)


def test_batches_stay_fault_free(graph):
    """``MultiSourceEngine`` wraps an engine with no fault plan and no
    resilience config, so a batch never checkpoints or rolls back."""
    batch = MultiSourceEngine(
        graph, paper_cluster(nodes=2), _config("activeset", "sieve")
    )
    assert batch.engine.injector is None
    assert batch.engine.resilience is None
    results = batch.run_batch([ROOT, 0, 7])
    assert len(results) == 3
    assert all(r.recovery is None for r in results)


class TestCrashSafeSave:
    """A crash mid-write must leave the previous archive (or nothing),
    never a torn one."""

    def test_crash_mid_write_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ckpt.npz"
        _small_checkpoint(level=1).save(path)

        def torn_write(fh, **arrays):
            fh.write(b"PK\x03\x04 partial garbage")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(OSError):
            _small_checkpoint(level=2).save(path)
        monkeypatch.undo()
        # The original archive is intact and still loads...
        assert BFSCheckpoint.load(path).level == 1
        # ...and no temporary file is left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_crash_on_first_write_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ckpt.npz"

        def torn_write(fh, **arrays):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(OSError):
            _small_checkpoint().save(path)
        assert list(tmp_path.iterdir()) == []

    def test_tmp_file_never_matches_the_store_glob(self, tmp_path):
        """The temporary name must miss DiskCheckpointStore's pruning
        glob, or a prune racing a save could delete the in-flight file."""
        tmp_name = "ckpt_level00001.npz.tmp.99999"  # another process's tmp
        (tmp_path / tmp_name).write_bytes(b"in flight")
        store = DiskCheckpointStore(tmp_path, keep=1)
        store.put(_small_checkpoint(level=1))
        assert (tmp_path / tmp_name).exists()

    def test_save_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        _small_checkpoint(level=1).save(path)
        _small_checkpoint(level=2).save(path)
        assert BFSCheckpoint.load(path).level == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]
