"""``resilience=None`` and an all-off policy run the same traversal.

A fault-free engine holds the all-off recovery object, whose hooks do
nothing; an engine given a ``ResilienceConfig`` holds a real one.  Over
kernels x codecs x traversal modes, three engines must agree byte for
byte on the parent tree, every ``LevelCounts`` field and every level's
priced time: ``resilience=None``, a policy that checkpoints and verifies
nothing, and the default policy with no fault plan.  Only the first
reports no recovery at all, and the second reports zero overhead.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import BFSConfig, CommConfig, TraversalMode
from repro.core.engine import BFSEngine
from repro.core.multisource import MultiSourceEngine
from repro.faults.recovery import ALL_OFF, ResilienceConfig
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from tests.test_golden_bfs import run_digest, timing_digest

ROOTS = (0, 5)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=10, edgefactor=16, seed=10)


@pytest.mark.parametrize("mode", list(TraversalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("codec", ["raw", "sieve", "auto"])
@pytest.mark.parametrize("kernel", ["reference", "activeset", "cnative"])
def test_no_policy_and_all_off_policy_agree(graph, kernel, codec, mode):
    config = BFSConfig(kernel=kernel, mode=mode, comm=CommConfig(codec=codec))
    cluster = paper_cluster(nodes=2)
    engines = [
        BFSEngine(graph, cluster, config),
        BFSEngine(
            graph, cluster, config,
            resilience=ResilienceConfig(
                checkpoint_every=0, verify_checksums=False
            ),
        ),
        BFSEngine(graph, cluster, config, resilience=ResilienceConfig()),
    ]
    assert engines[0].recovery is ALL_OFF
    assert all(e.recovery is not ALL_OFF for e in engines[1:])
    for root in ROOTS:
        none, off, default = (e.run(root) for e in engines)
        assert none.recovery is None
        assert off.recovery.overhead_ns == 0.0
        assert off.recovery.checkpoints == 0
        assert off.seconds == none.seconds
        assert default.recovery.checkpoints == default.levels
        assert default.recovery.retries == default.recovery.rollbacks == 0
        bare = [dataclasses.replace(r, recovery=None) for r in (off, default)]
        for other in bare:
            assert np.array_equal(other.parent, none.parent)
            assert run_digest(other) == run_digest(none)
            assert timing_digest(other) == timing_digest(none)


def test_batches_take_the_all_off_path(graph):
    batch = MultiSourceEngine(graph, paper_cluster(nodes=2))
    assert batch.engine.recovery is ALL_OFF
    results = batch.run_batch(list(ROOTS))
    assert all(r.recovery is None for r in results)
