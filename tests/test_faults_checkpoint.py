"""Checkpoint/restore round-trip guarantees.

A crash at *any* level, under *any* kernel backend and frontier codec,
with checkpoints living in memory or on disk, must resume to the exact
fault-free run: bit-identical parent tree, identical level counts,
identical simulated nanoseconds.  These tests sweep that matrix and pin
the on-disk ``.npz`` format round trip.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BFSConfig
from repro.core.engine import BFSEngine
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
    ckpt = BFSCheckpoint(
        level=4,
        prev_direction="bottom_up",
        policy_direction="top_down",
        policy_finished_bottom_up=True,
        parents=[rng.integers(-1, 100, size=32).astype(np.int64)
                 for _ in range(3)],
        unexplored=[7, 0, 123],
        frontier_lists=[np.array([1, 5], dtype=np.int64),
                        np.zeros(0, dtype=np.int64),
                        np.array([9], dtype=np.int64)],
        visited_words=rng.integers(0, 2**63, size=6).astype(np.uint64),
    )
    path = tmp_path / "ckpt.npz"
    ckpt.save(path)
    loaded = BFSCheckpoint.load(path)
    assert loaded.level == ckpt.level
    assert loaded.prev_direction == ckpt.prev_direction
    assert loaded.policy_direction == ckpt.policy_direction
    assert loaded.policy_finished_bottom_up is True
    assert loaded.unexplored == ckpt.unexplored
    for a, b in zip(loaded.parents, ckpt.parents):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.frontier_lists, ckpt.frontier_lists):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.visited_words, ckpt.visited_words)
    assert loaded.nbytes == ckpt.nbytes


def test_checkpoint_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a zip archive at all")
    with pytest.raises(CheckpointError):
        BFSCheckpoint.load(path)


def test_disk_store_prunes_to_keep(tmp_path):
    store = DiskCheckpointStore(tmp_path, keep=2)
    for level in range(5):
        store.put(
            BFSCheckpoint(
                level=level,
                prev_direction=None,
                policy_direction="top_down",
                policy_finished_bottom_up=False,
                parents=[np.zeros(8, dtype=np.int64)],
                unexplored=[0],
                frontier_lists=[np.zeros(0, dtype=np.int64)],
                visited_words=None,
            )
        )
    remaining = sorted(p.name for p in tmp_path.glob("ckpt_level*.npz"))
    assert remaining == ["ckpt_level00003.npz", "ckpt_level00004.npz"]
    assert store.latest().level == 4
    store.clear()
    assert store.latest() is None


def test_memory_store_keeps_latest():
    store = MemoryCheckpointStore(keep=1)
    for level in range(3):
        store.put(
            BFSCheckpoint(
                level=level,
                prev_direction=None,
                policy_direction="top_down",
                policy_finished_bottom_up=False,
                parents=[np.zeros(8, dtype=np.int64)],
                unexplored=[0],
                frontier_lists=[np.zeros(0, dtype=np.int64)],
                visited_words=None,
            )
        )
    assert len(store) == 1
    assert store.latest().level == 2


def _small_checkpoint(level: int = 1) -> BFSCheckpoint:
    return BFSCheckpoint(
        level=level,
        prev_direction=None,
        policy_direction="top_down",
        policy_finished_bottom_up=False,
        parents=[np.arange(8, dtype=np.int64)],
        unexplored=[3],
        frontier_lists=[np.array([2, 4], dtype=np.int64)],
        visited_words=None,
    )


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
