"""PreparedGraph / PreparedGraphCache: sharing, keys, and reuse."""

import numpy as np
import pytest

from repro.core.api import compare_configs, run_bfs
from repro.core.config import BFSConfig, CommConfig, paper_variants
from repro.core.engine import BFSEngine
from repro.core.prepared import (
    PreparedGraph,
    PreparedGraphCache,
    default_prepared_cache,
    graph_digest,
    reset_default_prepared_cache,
)
from repro.errors import ConfigError
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=10, edgefactor=8, seed=3)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(nodes=1)


class TestDigest:
    def test_digest_is_stable_and_memoized(self, graph):
        d1 = graph_digest(graph)
        assert d1 == graph_digest(graph)
        assert graph.meta["content_digest"] == d1

    def test_digest_distinguishes_graphs(self, graph):
        other = rmat_graph(scale=10, edgefactor=8, seed=4)
        assert graph_digest(other) != graph_digest(graph)


class TestPreparedGraph:
    def test_prepare_matches_engine_internals(self, graph, cluster):
        config = BFSConfig.original_ppn8()
        prepared = PreparedGraph.prepare(graph, cluster, config)
        engine = BFSEngine(graph, cluster, config, prepared=prepared)
        assert engine.prepared is prepared
        assert engine.partition is prepared.partition
        fresh = BFSEngine(graph, cluster, config)
        assert np.array_equal(
            fresh.partition.bounds, prepared.partition.bounds
        )

    def test_engine_result_unchanged_with_prepared(self, graph, cluster):
        config = BFSConfig.original_ppn8()
        prepared = PreparedGraph.prepare(graph, cluster, config)
        root = int(np.argmax(graph.degrees()))
        with_prep = BFSEngine(
            graph, cluster, config, prepared=prepared
        ).run(root)
        without = BFSEngine(graph, cluster, config).run(root)
        assert np.array_equal(with_prep.parent, without.parent)
        assert with_prep.seconds == without.seconds

    def test_check_rejects_other_graph(self, graph, cluster):
        config = BFSConfig.original_ppn8()
        prepared = PreparedGraph.prepare(graph, cluster, config)
        other = rmat_graph(scale=10, edgefactor=8, seed=4)
        with pytest.raises(ConfigError, match="different graph"):
            prepared.check(other, cluster, config)

    def test_check_rejects_other_partition_config(self, graph, cluster):
        config = BFSConfig.original_ppn8()
        prepared = PreparedGraph.prepare(graph, cluster, config)
        with pytest.raises(ConfigError, match="partition"):
            prepared.check(
                graph,
                cluster,
                BFSConfig(ppn=config.resolve_ppn(cluster), degree_balanced=True),
            )

    @pytest.mark.parametrize("degree_balanced", [False, True])
    def test_rank_degree_prepared_once_and_shared(
        self, graph, cluster, degree_balanced
    ):
        """The per-rank degree sums every batch starts its unexplored
        counts from are partition state: built by ``prepare``, frozen,
        and the same array for every engine over the prepared graph."""
        from repro.core.multisource import MultiSourceEngine

        config = BFSConfig(degree_balanced=degree_balanced)
        prepared = PreparedGraph.prepare(graph, cluster, config)
        bounds = prepared.partition.bounds
        want = [
            int(prepared.degrees[bounds[r]:bounds[r + 1]].sum())
            for r in range(prepared.num_ranks)
        ]
        assert prepared.rank_degree.tolist() == want
        assert not prepared.rank_degree.flags.writeable

        a = MultiSourceEngine(graph, cluster, config, prepared=prepared)
        b = MultiSourceEngine(graph, cluster, config, prepared=prepared)
        assert a.prepared.rank_degree is b.prepared.rank_degree
        a.run_batch([0, 1])  # a batch copies it, never writes it
        assert prepared.rank_degree.tolist() == want

    def test_per_query_knobs_do_not_invalidate(self, graph, cluster):
        config = BFSConfig.original_ppn8()
        prepared = PreparedGraph.prepare(graph, cluster, config)
        variant = BFSConfig(
            ppn=config.ppn,
            binding=config.binding,
            comm=CommConfig.shared_all(codec="sieve"),
            kernel="activeset",
        )
        prepared.check(graph, cluster, variant)  # must not raise


class TestCache:
    def test_hit_on_same_partition_axes(self, graph, cluster):
        cache = PreparedGraphCache(maxsize=4)
        a = cache.get_or_prepare(graph, cluster, BFSConfig.original_ppn8())
        b = cache.get_or_prepare(
            graph,
            cluster,
            BFSConfig(comm=CommConfig(codec="rle-bitmap")),
        )
        assert a is b  # codec is per-query, not a partition axis
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["hit_rate"] == 0.5

    def test_distinct_axes_miss(self, graph, cluster):
        cache = PreparedGraphCache(maxsize=4)
        a = cache.get_or_prepare(graph, cluster, BFSConfig())
        b = cache.get_or_prepare(
            graph, cluster, BFSConfig(degree_balanced=True)
        )
        assert a is not b
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self, graph, cluster):
        cache = PreparedGraphCache(maxsize=1)
        first = cache.get_or_prepare(graph, cluster, BFSConfig())
        cache.get_or_prepare(graph, cluster, BFSConfig(degree_balanced=True))
        assert len(cache) == 1
        again = cache.get_or_prepare(graph, cluster, BFSConfig())
        assert again is not first  # was evicted, rebuilt
        assert cache.stats()["hits"] == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ConfigError):
            PreparedGraphCache(maxsize=0)

    def test_default_cache_reset(self):
        first = default_prepared_cache()
        assert default_prepared_cache() is first
        fresh = reset_default_prepared_cache()
        assert fresh is not first
        assert default_prepared_cache() is fresh


class TestSharedAcrossComparisons:
    """compare_configs routes variants through one prepared graph per
    layout — and TEPS stay identical to unshared runs."""

    def test_compare_configs_teps_identical_to_fresh_runs(
        self, graph, cluster
    ):
        configs = paper_variants(256)
        root = int(np.argmax(graph.degrees()))
        comparison = compare_configs(
            graph, configs, cluster=cluster, root=root
        )
        for name, config in configs.items():
            fresh = run_bfs(graph, root, cluster=cluster, config=config)
            assert comparison.teps[name] == fresh.teps, name
            assert comparison.seconds[name] == fresh.seconds, name
