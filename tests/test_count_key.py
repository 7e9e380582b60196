"""Count once, price many: the count key and the counts memo.

``BFSConfig.count_key`` names the settings that decide what a traversal
does; every other setting only prices it.  These tests pin that split
(a price-only change leaves the parent array and every count
byte-identical), that every config field is classified, and that
``predict_graph500``'s memo returns exactly what a fresh run would.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (
    COUNT_KEY_FIELDS,
    PRICE_ONLY_FIELDS,
    BFSConfig,
    CommConfig,
    SharingVariant,
    TraversalMode,
)
from repro.core.engine import BFSEngine
from repro.core.timing import CostConstants
from repro.graph.degree import sample_roots
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster
from repro.model import predict as predict_mod
from repro.model.predict import predict_graph500
from repro.mpi.collectives import AllgatherAlgorithm
from repro.mpi.mapping import BindingPolicy

NODES = 2


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=11, seed=3)


@pytest.fixture(scope="module")
def roots(graph):
    return [int(r) for r in sample_roots(graph, 3, seed=1)]


def _digest(value, h=None) -> str:
    """sha256 over ``value`` field by field: arrays by dtype, shape and
    bytes, dataclasses and lists recursively, anything else by repr."""
    h = hashlib.sha256() if h is None else h
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _digest(getattr(value, f.name), h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest(item, h)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def _run_digest(graph, config, cluster, constants, root) -> str:
    res = BFSEngine(graph, cluster, config, constants=constants).run(root)
    return _digest([res.parent, res.counts])


# Valid communication blocks; the codec is filled in per example.
_COMM_VARIANTS = [
    dict(sharing=SharingVariant.PRIVATE),
    dict(sharing=SharingVariant.IN_QUEUE),
    dict(sharing=SharingVariant.ALL),
    dict(sharing=SharingVariant.ALL, parallel_allgather=True),
    dict(sharing=SharingVariant.PRIVATE, allgather=AllgatherAlgorithm.RING),
    dict(sharing=SharingVariant.PRIVATE, allgather=AllgatherAlgorithm.LEADER),
    dict(
        sharing=SharingVariant.PRIVATE,
        allgather=AllgatherAlgorithm.LEADER_OVERLAPPED,
    ),
    dict(
        sharing=SharingVariant.IN_QUEUE,
        allgather=AllgatherAlgorithm.MULTI_LEADER,
    ),
    dict(
        sharing=SharingVariant.ALL,
        allgather=AllgatherAlgorithm.RECURSIVE_DOUBLING,
    ),
]


@st.composite
def _changes(draw):
    """One drawn price-only change: ``(kind, value)`` for :func:`_apply`."""
    kind = draw(st.sampled_from([
        "binding", "comm", "omp_dynamic", "label",
        "weak_node", "constants",
    ]))
    if kind == "binding":
        value = draw(st.sampled_from(list(BindingPolicy)))
    elif kind == "comm":
        value = draw(st.sampled_from(_COMM_VARIANTS))
    elif kind == "omp_dynamic":
        value = False
    elif kind == "label":
        value = draw(st.text(min_size=1, max_size=8))
    elif kind == "weak_node":
        value = draw(st.floats(0.1, 1.0))
    else:
        value = CostConstants(
            cycles_per_td_edge=draw(st.floats(1.0, 20.0)),
            cycles_per_bu_edge=draw(st.floats(1.0, 20.0)),
            omp_static_penalty=draw(st.floats(1.0, 3.0)),
        )
    return kind, value


def _apply(kind, value, config, cluster, constants):
    if kind == "binding":
        config = dataclasses.replace(config, binding=value)
    elif kind == "comm":
        config = dataclasses.replace(
            config, comm=CommConfig(codec=config.comm.codec, **value)
        )
    elif kind in ("omp_dynamic", "label"):
        config = dataclasses.replace(config, **{kind: value})
    elif kind == "weak_node":
        cluster = dataclasses.replace(
            cluster, weak_nodes={cluster.nodes - 1: value}
        )
    else:
        constants = value
    return config, cluster, constants


class TestPriceOnlyFields:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        change=_changes(),
        codec=st.sampled_from(["raw", "sieve"]),
        which=st.integers(0, 2),
    )
    def test_price_only_change_keeps_every_count(
        self, graph, roots, change, codec, which
    ):
        kind, value = change
        cluster = paper_cluster(nodes=NODES)
        config = BFSConfig(comm=CommConfig(codec=codec))
        constants = CostConstants()
        other = _apply(kind, value, config, cluster, constants)
        assert other[0].count_key(other[1], other[2]) == config.count_key(
            cluster, constants
        )
        root = roots[which]
        assert _run_digest(graph, *other, root) == _run_digest(
            graph, config, cluster, constants, root
        )


    @pytest.mark.parametrize("comm", _COMM_VARIANTS, ids=repr)
    def test_every_comm_variant_keeps_every_count(self, graph, roots, comm):
        cluster = paper_cluster(nodes=NODES)
        config = BFSConfig(comm=CommConfig(codec="raw"))
        constants = CostConstants()
        other = _apply("comm", comm, config, cluster, constants)
        assert _run_digest(graph, *other, roots[0]) == _run_digest(
            graph, config, cluster, constants, roots[0]
        )


class TestClassification:
    def test_every_field_is_classified_once(self):
        names = [
            f.name for f in dataclasses.fields(BFSConfig) if f.name != "comm"
        ] + [f.name for f in dataclasses.fields(CommConfig)]
        for name in names:
            assert (name in COUNT_KEY_FIELDS) != (name in PRICE_ONLY_FIELDS), (
                f"BFSConfig/CommConfig field {name!r} must be named in "
                "exactly one of COUNT_KEY_FIELDS and PRICE_ONLY_FIELDS"
            )
        assert sorted(COUNT_KEY_FIELDS + PRICE_ONLY_FIELDS) == sorted(names)

    @pytest.mark.parametrize(
        "change",
        [
            dict(ppn=1),
            dict(degree_balanced=True),
            dict(mode=TraversalMode.TOP_DOWN),
            dict(alpha=10.0),
            dict(beta=12.0),
            dict(comm=CommConfig(summary_granularity=128)),
            dict(comm=CommConfig(use_summary=False)),
            dict(comm=CommConfig(codec="rle-bitmap")),
            dict(kernel="reference"),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_every_count_key_field_moves_the_key(self, change):
        cluster = paper_cluster(nodes=NODES)
        base = BFSConfig(comm=CommConfig(codec="raw"), kernel="activeset")
        assert dataclasses.replace(base, **change).count_key(
            cluster
        ) != base.count_key(cluster)

    def test_rank_count_comes_from_the_cluster(self):
        config = BFSConfig()
        assert config.count_key(paper_cluster(nodes=2))[0] == 16
        assert config.count_key(paper_cluster(nodes=4))[0] == 32

    def test_auto_codec_keys_on_the_cost_model(self):
        config = BFSConfig(comm=CommConfig(codec="auto"))
        cluster = paper_cluster(nodes=NODES)
        weak = paper_cluster(nodes=NODES, weak_node=True)
        assert config.count_key(cluster) != config.count_key(weak)
        assert config.count_key(cluster) != dataclasses.replace(
            config, comm=CommConfig.shared_all(codec="auto")
        ).count_key(cluster)
        assert config.count_key(cluster) != config.count_key(
            cluster, CostConstants(cycles_per_bu_edge=7.0)
        )


class TestCountMemo:
    def _predict(self, graph, config):
        # A concrete codec: under REPRO_CODEC=auto the sharing variant
        # would enter the key and turn every hit below into a miss.
        config = dataclasses.replace(
            config, comm=dataclasses.replace(config.comm, codec="raw")
        )
        return predict_graph500(
            graph, paper_cluster(nodes=NODES), config,
            target_scale=24, num_roots=2, seed=5,
        )

    def test_hit_equals_cleared_memo_prediction(self, graph):
        memo = predict_mod._COUNT_MEMO
        memo.clear()
        self._predict(graph, BFSConfig.original_ppn8())
        hits = memo.hits
        hit = self._predict(graph, BFSConfig.par_allgather_variant())
        assert memo.hits == hits + 1
        memo.clear()
        fresh = self._predict(graph, BFSConfig.par_allgather_variant())
        assert memo.hits == 0
        assert _digest(hit) == _digest(fresh)
        assert hit.harmonic_mean_teps == fresh.harmonic_mean_teps
        assert hit.mean_breakdown() == fresh.mean_breakdown()

    def test_cached_counts_are_never_written(self, graph):
        memo = predict_mod._COUNT_MEMO
        memo.clear()
        first = self._predict(graph, BFSConfig.original_ppn8())
        ((runs, _, _),) = memo._entries.values()
        before = _digest(runs)
        second = self._predict(graph, BFSConfig.share_all_variant())
        assert _digest(runs) == before
        for counts in runs:
            for lc in counts.levels:
                assert not lc.examined_edges.flags.writeable
                with pytest.raises(ValueError):
                    lc.discovered[0] = 1
        for pred in (first, second):
            for p, counts in zip(pred.predictions, runs):
                for lc, cached in zip(p.counts.levels, counts.levels):
                    assert lc.examined_edges.flags.writeable
                    assert not np.shares_memory(
                        lc.examined_edges, cached.examined_edges
                    )

    def test_memo_holds_counts_only_within_its_byte_bound(self, graph):
        memo = predict_mod._COUNT_MEMO
        memo.clear()
        self._predict(graph, BFSConfig.original_ppn8())
        ((runs, _, nbytes),) = memo._entries.values()
        assert isinstance(runs, tuple) and len(runs) == 2
        assert all(type(c).__name__ == "RunCounts" for c in runs)
        assert 0 < nbytes <= memo.max_bytes
        assert memo.max_bytes == predict_mod._COUNT_MEMO_BYTES

    def test_different_roots_or_graphs_miss(self, graph):
        memo = predict_mod._COUNT_MEMO
        memo.clear()
        config = BFSConfig.original_ppn8()
        self._predict(graph, config)
        predict_graph500(
            graph, paper_cluster(nodes=NODES), config,
            target_scale=24, num_roots=2, seed=6,
        )
        self._predict(rmat_graph(scale=11, seed=4), config)
        assert memo.hits == 0 and len(memo) == 3
