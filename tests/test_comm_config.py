"""CommConfig: every communication knob on ``BFSConfig.comm``.

This suite pins two contracts: (1) ``CommConfig`` validates and derives
algorithms exactly as the paper's stack does, and (2) the forwarding
properties keep the paper's vocabulary (``share_in_queue`` and
friends) readable without a second source of truth.
"""

import dataclasses

import pytest

from repro.core import BFSConfig, CommConfig, SharingVariant
from repro.errors import ConfigError
from repro.machine import Placement
from repro.mpi import AllgatherAlgorithm


class TestCommConfigValidation:
    def test_granularity_must_be_multiple_of_64(self):
        for bad in (0, 32, 100, -64):
            with pytest.raises(ConfigError, match="granularity"):
                CommConfig(summary_granularity=bad)
        CommConfig(summary_granularity=64)
        CommConfig(summary_granularity=4096)

    def test_parallel_requires_share_all(self):
        with pytest.raises(ConfigError, match="Share all"):
            CommConfig(parallel_allgather=True)
        with pytest.raises(ConfigError, match="Share all"):
            CommConfig(
                sharing=SharingVariant.IN_QUEUE, parallel_allgather=True
            )
        CommConfig(sharing=SharingVariant.ALL, parallel_allgather=True)

    def test_shared_algorithm_needs_shared_buffers(self):
        with pytest.raises(ConfigError, match="node-shared"):
            CommConfig(allgather=AllgatherAlgorithm.SHARED_IN)
        CommConfig(
            sharing=SharingVariant.IN_QUEUE,
            allgather=AllgatherAlgorithm.SHARED_IN,
        )
        # Private ranks may still pick any rank-private algorithm.
        CommConfig(allgather=AllgatherAlgorithm.RING)

    def test_frozen(self):
        cfg = CommConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.summary_granularity = 128

    def test_replace_revalidates(self):
        cfg = CommConfig.parallel()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, sharing=SharingVariant.PRIVATE)


class TestDerivations:
    """Algorithm/placement derivations match the paper's stack."""

    def test_in_queue_algorithm_per_variant(self):
        assert (
            CommConfig.private().in_queue_algorithm()
            is AllgatherAlgorithm.DEFAULT
        )
        assert (
            CommConfig.shared_in_queue().in_queue_algorithm()
            is AllgatherAlgorithm.SHARED_IN
        )
        assert (
            CommConfig.shared_all().in_queue_algorithm()
            is AllgatherAlgorithm.SHARED_ALL
        )
        assert (
            CommConfig.parallel().in_queue_algorithm()
            is AllgatherAlgorithm.PARALLEL_SHARED
        )

    def test_explicit_allgather_overrides_derivation(self):
        cfg = CommConfig.shared_all(
            allgather=AllgatherAlgorithm.MULTI_LEADER
        )
        assert cfg.in_queue_algorithm() is AllgatherAlgorithm.MULTI_LEADER

    def test_summary_shared_only_under_share_all(self):
        assert (
            CommConfig.parallel().summary_algorithm()
            is AllgatherAlgorithm.SHARED_ALL
        )
        assert (
            CommConfig.shared_in_queue().summary_algorithm()
            is AllgatherAlgorithm.DEFAULT
        )

    def test_placements(self):
        cfg = CommConfig.shared_in_queue()
        assert (
            cfg.in_queue_placement(Placement.LOCAL_SOCKET)
            is Placement.NODE_SHARED
        )
        assert (
            cfg.summary_placement(Placement.LOCAL_SOCKET)
            is Placement.LOCAL_SOCKET
        )
        assert (
            CommConfig.shared_all().summary_placement(
                Placement.LOCAL_SOCKET
            )
            is Placement.NODE_SHARED
        )


class TestForwardingProperties:
    """BFSConfig keeps the paper's vocabulary as read-only views."""

    def test_views_track_comm(self):
        cfg = BFSConfig(
            comm=CommConfig.parallel(summary_granularity=256)
        )
        assert cfg.share_in_queue
        assert cfg.share_all
        assert cfg.parallel_allgather
        assert cfg.granularity == 256
        assert cfg.use_summary
        assert cfg.shares_in_queue and cfg.shares_everything

    def test_views_are_read_only(self):
        cfg = BFSConfig()
        with pytest.raises((AttributeError, dataclasses.FrozenInstanceError)):
            cfg.share_in_queue = True

    def test_comm_is_single_source(self):
        """Replacing comm flips every view — no second copy anywhere."""
        cfg = BFSConfig()
        assert not cfg.share_in_queue
        cfg2 = dataclasses.replace(cfg, comm=CommConfig.shared_all())
        assert cfg2.share_in_queue and cfg2.share_all

    def test_comm_must_be_commconfig(self):
        with pytest.raises(ConfigError, match="CommConfig"):
            BFSConfig(comm={"sharing": "all"})
