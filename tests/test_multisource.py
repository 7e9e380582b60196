"""Batched multi-source BFS: bit-identity against sequential runs.

The contract under test (:mod:`repro.core.multisource`): a batch of K
sources produces, for every source, *exactly* what a sequential
``BFSEngine.run`` produces — parent tree, per-level per-rank counts,
byte accounting, and therefore priced simulated seconds.  The sweep
covers every kernel backend (``cnative`` — the kernel the serving
benchmark runs — when this machine can build it), the sharing variants,
frontier codecs, summary on/off, and batch widths 1, 3 and the full 64
lanes.
"""

import numpy as np
import pytest

from repro.core.config import BFSConfig, CommConfig
from repro.core.engine import BFSEngine
from repro.core.kernels import available_backends
from repro.core.multisource import MultiSourceEngine, run_bfs_batch
from repro.errors import ConfigError, GraphError
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster

SCALE = 10

ARRAY_FIELDS = (
    "frontier_local",
    "discovered",
    "candidates",
    "examined_edges",
    "inqueue_reads",
)
SCALAR_FIELDS = (
    "direction",
    "allreduces",
    "switched",
    "codec",
    "inq_part_words",
    "summary_part_words",
    "inq_raw_total_bytes",
    "inq_wire_total_bytes",
    "summary_raw_total_bytes",
    "summary_wire_total_bytes",
    "summary_wire_part_bytes",
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=SCALE, edgefactor=16, seed=7)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(nodes=2)


def assert_identical(seq, bat, context):
    """One sequential result vs. the same source's batched result."""
    assert np.array_equal(seq.parent, bat.parent), context
    assert seq.levels == bat.levels, context
    assert seq.counts.visited_vertices == bat.counts.visited_vertices
    assert seq.counts.traversed_edges == bat.counts.traversed_edges
    assert len(seq.counts.levels) == len(bat.counts.levels), context
    for i, (sl, bl) in enumerate(zip(seq.counts.levels, bat.counts.levels)):
        for f in SCALAR_FIELDS:
            assert getattr(sl, f) == getattr(bl, f), (context, i, f)
        for f in ARRAY_FIELDS:
            assert np.array_equal(getattr(sl, f), getattr(bl, f)), (
                context,
                i,
                f,
            )
        if sl.td_send_bytes is None or bl.td_send_bytes is None:
            assert sl.td_send_bytes is None and bl.td_send_bytes is None
        else:
            assert np.array_equal(sl.td_send_bytes, bl.td_send_bytes)
        if (
            sl.inq_wire_part_bytes is not None
            or bl.inq_wire_part_bytes is not None
        ):
            assert np.allclose(
                sl.inq_wire_part_bytes, bl.inq_wire_part_bytes
            ), (context, i)
    # The headline acceptance: priced simulated time is bit-identical.
    assert seq.timing.total_seconds == bat.timing.total_seconds, context
    assert seq.seconds == bat.seconds, context


def run_and_compare(graph, cluster, config, roots, label):
    eng = BFSEngine(graph, cluster, config)
    batch = MultiSourceEngine(graph, cluster, config).run_batch(roots)
    assert len(batch) == len(roots)
    for root, bat in zip(roots, batch):
        assert_identical(eng.run(root), bat, (label, root))


def roots_for(graph, k, seed=3):
    rng = np.random.default_rng(seed)
    return [int(r) for r in rng.integers(0, graph.num_vertices, k)]


CONFIGS = {
    "original": lambda kern: BFSConfig(kernel=kern),
    "no-summary": lambda kern: BFSConfig(
        kernel=kern, comm=CommConfig(use_summary=False)
    ),
    "share-all": lambda kern: BFSConfig(
        kernel=kern, comm=CommConfig.shared_all()
    ),
    "parallel-sieve": lambda kern: BFSConfig(
        kernel=kern, comm=CommConfig.parallel(codec="sieve")
    ),
    "rle": lambda kern: BFSConfig(
        kernel=kern, comm=CommConfig(codec="rle-bitmap")
    ),
    "granularity-256": lambda kern: BFSConfig(
        kernel=kern, comm=CommConfig(summary_granularity=256)
    ),
    "degree-balanced": lambda kern: BFSConfig(
        kernel=kern, degree_balanced=True
    ),
}


class TestBitIdentity:
    """Batch of K == K sequential runs, over the full config sweep."""

    @pytest.mark.parametrize("kernel", ["reference", "activeset", "cnative"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_sweep(self, graph, cluster, kernel, name, k):
        ok, reason = available_backends(detail=True)[kernel]
        if not ok:
            pytest.skip(f"{kernel} unavailable here: {reason}")
        config = CONFIGS[name](kernel)
        roots = roots_for(graph, k, seed=5 + k)
        run_and_compare(graph, cluster, config, roots, f"{name}/{kernel}")

    def test_full_64_lane_batch(self, graph, cluster):
        config = BFSConfig(kernel="activeset")
        roots = roots_for(graph, 64, seed=11)
        run_and_compare(graph, cluster, config, roots, "64-lane")

    def test_full_64_lanes_with_codec(self, graph, cluster):
        config = BFSConfig(
            kernel="activeset", comm=CommConfig.shared_all(codec="sieve")
        )
        roots = roots_for(graph, 64, seed=13)
        run_and_compare(graph, cluster, config, roots, "64-lane-sieve")

    def test_duplicate_roots_allowed(self, graph, cluster):
        root = roots_for(graph, 1, seed=2)[0]
        config = BFSConfig(kernel="reference")
        run_and_compare(
            graph, cluster, config, [root, root, root], "duplicates"
        )

    def test_zero_degree_root(self, graph, cluster):
        degrees = graph.degrees()
        lonely = np.flatnonzero(degrees == 0)
        if lonely.size == 0:
            pytest.skip("workload has no zero-degree vertex")
        config = BFSConfig(kernel="activeset")
        run_and_compare(
            graph, cluster, config, [int(lonely[0])], "zero-degree"
        )


class TestBatchValidation:
    """Input validation and the engine's public surface."""

    def test_more_than_64_sources_rejected(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        with pytest.raises(ConfigError, match="64"):
            ms.run_batch(list(range(65)))

    def test_empty_batch_rejected(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        with pytest.raises(GraphError, match="at least one"):
            ms.run_batch([])

    def test_out_of_range_root_rejected(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        with pytest.raises(GraphError, match="out of range"):
            ms.run_batch([graph.num_vertices])

    def test_engine_reusable_across_batches(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        a = ms.run_batch(roots_for(graph, 2, seed=1))
        b = ms.run_batch(roots_for(graph, 2, seed=1))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.parent, rb.parent)
            assert ra.seconds == rb.seconds

    def test_validate_flag_runs_graph500_checks(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        ms.run_batch(roots_for(graph, 2, seed=4), validate=True)

    def test_run_bfs_batch_convenience(self, graph):
        roots = roots_for(graph, 2, seed=6)
        results = run_bfs_batch(graph, roots)
        seq = BFSEngine(
            graph, paper_cluster(nodes=1), BFSConfig.original_ppn8()
        )
        for root, bat in zip(roots, results):
            assert_identical(seq.run(root), bat, ("convenience", root))

    def test_one_shot_iterable_under_recording_tracer(self, graph, cluster):
        """``roots`` is read once: a generator must survive the traced
        path's lane bookkeeping and still reach the traversal."""
        from repro.obs.tracer import SpanTracer

        roots = roots_for(graph, 3, seed=9)
        tracer = SpanTracer()
        ms = MultiSourceEngine(graph, cluster, tracer=tracer)
        results = ms.run_batch(r for r in roots)
        assert [res.root for res in results] == roots
        (run,) = [sp for sp in tracer.spans if sp.name == "batch.run"]
        assert run.attrs["lanes"] == 3 and run.attrs["sources"] == roots
        lanes = [sp for sp in tracer.spans if sp.name == "batch.lane"]
        assert [sp.attrs["source"] for sp in lanes] == roots
        # Tracing changes nothing functional, comm events included.
        plain = MultiSourceEngine(graph, cluster).run_batch(roots)
        for a, b in zip(results, plain):
            assert_identical(a, b, "traced-vs-plain")

    def test_shares_prepared_graph(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        assert ms.prepared is ms.engine.prepared
        ms2 = MultiSourceEngine(graph, cluster, prepared=ms.prepared)
        assert ms2.prepared is ms.prepared


class TestBatchTracing:
    """A traced batch records, per lane, what a traced run records."""

    @pytest.fixture(scope="class")
    def traced(self, graph, cluster):
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer()
        roots = roots_for(graph, 3, seed=9)
        ms = MultiSourceEngine(graph, cluster, tracer=tracer)
        return ms.run_batch(roots), tracer.spans

    def test_bu_scan_spans_match_each_lanes_counts(self, traced):
        results, spans = traced
        scans = [sp for sp in spans if sp.name == "phase.bu_scan"]
        by_index = {sp.index: sp for sp in spans}
        assert scans
        for lane, res in enumerate(results):
            bottom_up = [
                lc for lc in res.counts.levels if lc.direction == "bottom_up"
            ]
            mine = [sp for sp in scans if sp.attrs["lane"] == lane]
            assert len(mine) == len(bottom_up), lane
            for lc, sp in zip(bottom_up, mine):
                assert by_index[sp.parent].name == "level"
                assert by_index[sp.parent].attrs["level"] == lc.level
                assert sp.attrs["candidates"] == lc.candidates.tolist()
                assert sp.attrs["examined_edges"] == lc.examined_edges.tolist()
                assert sp.attrs["inqueue_reads"] == lc.inqueue_reads.tolist()

    def test_one_level_span_per_round(self, traced):
        results, spans = traced
        levels = [sp for sp in spans if sp.name == "level"]
        rounds = max(res.levels for res in results)
        assert [sp.attrs["level"] for sp in levels] == list(range(rounds))
        for sp in levels:
            live = [res for res in results if res.levels > sp.attrs["level"]]
            directions = [
                res.counts.levels[sp.attrs["level"]].direction for res in live
            ]
            assert sp.attrs["top_down"] == directions.count("top_down")
            assert sp.attrs["bottom_up"] == directions.count("bottom_up")

    def test_every_lane_decision_is_marked(self, traced):
        results, spans = traced
        markers = [sp for sp in spans if sp.name == "direction.decide"]
        assert len(markers) == sum(res.levels for res in results)


class TestCooperativeCancel:
    """The engine-level cancel hook the serving deadline path uses."""

    def test_cancelled_token_stops_before_any_level(self, graph, cluster):
        from repro.errors import DeadlineExceededError
        from repro.serve.resilience import CancelToken

        ms = MultiSourceEngine(graph, cluster)
        token = CancelToken()
        token.cancel()
        with pytest.raises(DeadlineExceededError) as err:
            ms.run_batch(roots_for(graph, 2, seed=3), cancel=token)
        assert "batch round" in err.value.context["where"]

    def test_mid_traversal_cancel_stops_between_levels(
        self, graph, cluster
    ):
        from repro.errors import DeadlineExceededError
        from repro.serve.resilience import CancelToken

        # A clock the test advances: the first check (round 0) passes,
        # every later one sees the deadline expired.
        ticks = [0.0]

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        ms = MultiSourceEngine(graph, cluster)
        token = CancelToken(deadline=2.5, clock=clock)
        with pytest.raises(DeadlineExceededError):
            ms.run_batch(roots_for(graph, 2, seed=3), cancel=token)

    def test_none_cancel_is_the_default_path(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        roots = roots_for(graph, 2, seed=3)
        with_none = ms.run_batch(roots, cancel=None)
        plain = ms.run_batch(roots)
        for a, b in zip(with_none, plain):
            assert np.array_equal(a.parent, b.parent)
            assert a.seconds == b.seconds

    def test_out_of_range_error_is_structured(self, graph, cluster):
        ms = MultiSourceEngine(graph, cluster)
        bad = graph.num_vertices + 3
        with pytest.raises(GraphError) as err:
            ms.run_batch([bad])
        assert err.value.context["vertex"] == bad
        assert err.value.context["num_vertices"] == graph.num_vertices
