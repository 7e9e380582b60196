"""The cnative backend's build machinery and graceful degradation.

The equivalence suite (test_kernel_backends.py) already pins the
*kernels* whenever this machine has a toolchain; this file pins the
machinery around them: compiler discovery, the hashed on-disk cache,
corrupted-cache recovery, and — most importantly — that a missing or
broken toolchain degrades resolution to ``activeset`` with a structured
warning instead of breaking any run (tier-1 must pass identically with
and without a compiler).
"""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine, TraversalMode
from repro.core.kernels import CNativeBackend, get_backend, resolve_backend
from repro.core.kernels import base as kernels_base
from repro.core.kernels.cnative import build
from repro.graph import rmat_graph
from repro.machine import paper_cluster
from repro.obs.log import setup_logging


@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """Isolated build state: private cache dir, forgotten probe memo,
    re-armed fallback warning.  Restores the process-wide memo (and the
    default logging setup) afterwards so later tests re-probe cleanly."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels_base, "_WARNED", set())
    build.reset()
    yield
    build.reset()
    setup_logging()


def _toolchain_or_skip():
    ok, reason = build.availability()
    if not ok:
        pytest.skip(f"no usable C toolchain here: {reason}")


def _plant_corrupt_entry(monkeypatch, tmp_path):
    """Plant a garbage cache entry *before* anything is loaded, the way a
    truncated copy from a crashed earlier run would appear.  (Corrupting
    after a successful load can't exercise the rebuild path: dlopen
    memoizes by pathname and would hand back the cached handle.)

    The toolchain check is a trial build in a scratch cache dir — a
    compiler that merely *exists* isn't enough (``CC=/bin/false``), and
    probing in the real cache dir would load the good library at the
    very path the test needs to see corrupted first.
    """
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "probe"))
    ok, reason = build.availability()
    build.reset()
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    if not ok:
        pytest.skip(f"no usable C toolchain here: {reason}")
    path = build.library_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"this is not a shared library")
    return path


class TestCompilerProbe:
    def test_cc_env_var_wins(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false -extra -flags")
        assert build.find_compiler() == ["/bin/false", "-extra", "-flags"]

    def test_unresolvable_cc_means_no_compiler(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("CC", "/no/such/compiler-xyz")
        assert build.find_compiler() is None

    def test_empty_path_probe_finds_nothing(self, fresh_probe, monkeypatch):
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")
        assert build.find_compiler() is None
        ok, reason = build.availability()
        assert not ok
        assert "no C compiler" in reason

    def test_library_path_keyed_by_compiler(self, fresh_probe):
        a = build.library_path(["gcc"])
        b = build.library_path(["clang"])
        assert a is not None and b is not None and a != b
        assert a.parent == build.cache_dir()


class TestGracefulDegradation:
    def test_broken_cc_falls_back_with_structured_warning(
        self, fresh_probe, monkeypatch
    ):
        monkeypatch.setenv("CC", "/bin/false")
        stream = io.StringIO()
        setup_logging(level="info", fmt="json", stream=stream)

        backend = get_backend("cnative")
        assert backend.name == "activeset"

        lines = [ln for ln in stream.getvalue().splitlines() if ln.strip()]
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["level"] == "warning"
        assert doc["logger"] == "repro.kernels"
        assert doc["backend"] == "cnative"
        assert doc["fallback"] == "activeset"
        assert doc["reason"]

        # The warning fires once per process, not once per resolution.
        assert get_backend("cnative").name == "activeset"
        assert stream.getvalue().splitlines() == lines

    def test_engine_runs_on_fallback(self, fresh_probe, monkeypatch):
        """No toolchain: a ``cnative`` run is an ``activeset`` run, with
        unchanged results."""
        graph = rmat_graph(scale=10, edgefactor=8, seed=1)
        cluster = paper_cluster(nodes=2)
        want = BFSEngine(graph, cluster, BFSConfig(kernel="activeset")).run(0)

        monkeypatch.setenv("CC", "/bin/false")
        engine = BFSEngine(graph, cluster, BFSConfig(kernel="cnative"))
        assert engine.kernel.name == "activeset"
        result = engine.run(0)
        assert result.visited > 0
        assert np.array_equal(result.parent, want.parent)
        assert result.timing.total_seconds == want.timing.total_seconds

    def test_pure_top_down_runs_on_fallback(self, fresh_probe, monkeypatch):
        """No toolchain: every level of a pure top-down ``cnative`` run
        takes the numpy step, with unchanged results."""
        graph = rmat_graph(scale=10, edgefactor=8, seed=1)
        cluster = paper_cluster(nodes=2)
        config = BFSConfig(kernel="activeset", mode=TraversalMode.TOP_DOWN)
        want = BFSEngine(graph, cluster, config).run(0)
        assert want.levels > 2

        monkeypatch.setenv("CC", "/bin/false")
        engine = BFSEngine(graph, cluster, replace(config, kernel="cnative"))
        assert engine.kernel.name == "activeset"
        result = engine.run(0)
        assert np.array_equal(result.parent, want.parent)
        assert result.timing.total_seconds == want.timing.total_seconds

    def test_batch_runs_on_fallback(self, fresh_probe, monkeypatch):
        """No toolchain: a ``cnative`` batch is an ``activeset`` batch,
        with unchanged results."""
        from repro.core.multisource import MultiSourceEngine

        graph = rmat_graph(scale=10, edgefactor=8, seed=1)
        cluster = paper_cluster(nodes=2)
        roots = [0, 5, 9]
        want = MultiSourceEngine(
            graph, cluster, BFSConfig(kernel="activeset")
        ).run_batch(roots)

        monkeypatch.setenv("CC", "/bin/false")
        ms = MultiSourceEngine(graph, cluster, BFSConfig(kernel="cnative"))
        assert ms.engine.kernel.name == "activeset"
        for a, b in zip(want, ms.run_batch(roots)):
            assert np.array_equal(a.parent, b.parent)
            assert a.timing.total_seconds == b.timing.total_seconds

    def test_env_var_selection_falls_back(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("REPRO_KERNEL", "cnative")
        assert resolve_backend(None).name == "activeset"

    def test_config_knobs_survive_the_fallback(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        backend = resolve_backend(BFSConfig(kernel="cnative"))
        assert backend.name == "activeset"

    def test_direct_load_raises_typed_error(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        with pytest.raises(build.NativeBuildError, match="exited|failed"):
            build.load_library()
        # The failure is memoized: availability() reports it without
        # re-running the compiler.
        ok, reason = build.availability()
        assert not ok and reason


class TestSmokeCheck:
    """A library that loads but computes wrong answers must not serve."""

    @pytest.mark.parametrize("kernel, intact, broken", [
        ("repro_bu_scan", "if (TEST_BIT(inq_words, v)) {", "if (0) {"),
        # A rank scanned from the start of the CSR, or whose discoveries
        # keep their rank-local ids, must fail the two-rank probe.
        ("repro_bu_scan", "offsets + lo, targets", "offsets, targets"),
        ("repro_bu_scan", "found[i] += lo;", "found[i] += 0;"),
        # A top-down step that counts a sender's repeated child twice,
        # rediscovers a visited child, or drops the sender from the
        # next frontier's order must fail the two-rank, two-lane probe.
        ("repro_td_step", "if (offered[v >> 6] & bit)", "if (0)"),
        ("repro_td_step", "if (p[v] < 0) {", "if (1) {"),
        (
            "repro_td_step",
            "out[slot[owner_at(block_owner, bounds, p[v])]++] = v;",
            "out[slot[0]++] = v;",
        ),
    ])
    def test_miscompiled_kernel_marks_backend_unavailable(
        self, fresh_probe, monkeypatch, tmp_path, kernel, intact, broken
    ):
        _toolchain_or_skip()
        build.reset()
        source = build.source_path().read_text()
        assert source.count(intact) == 1
        tampered = tmp_path / "bfs_kernels.c"
        tampered.write_text(source.replace(intact, broken))
        monkeypatch.setattr(build, "_SOURCE", tampered)

        ok, reason = build.availability()
        assert not ok
        assert f"smoke check failed for {kernel}" in reason
        assert get_backend("cnative").name == "activeset"


class TestCacheLifecycle:
    def test_corrupted_cache_entry_is_rebuilt(
        self, fresh_probe, monkeypatch, tmp_path
    ):
        path = _plant_corrupt_entry(monkeypatch, tmp_path)
        ok, reason = build.availability()
        assert ok, reason
        assert path.exists() and path.read_bytes()[:4] == b"\x7fELF"

    def test_cache_hit_skips_recompilation(self, fresh_probe):
        _toolchain_or_skip()
        path = build.library_path()
        stamp = path.stat().st_mtime_ns
        build.reset()
        ok, _ = build.availability()
        assert ok
        assert path.stat().st_mtime_ns == stamp

    def test_scan_works_after_rebuild(self, fresh_probe, monkeypatch, tmp_path):
        _plant_corrupt_entry(monkeypatch, tmp_path)
        backend = get_backend("cnative")
        assert isinstance(backend, CNativeBackend)
        graph = rmat_graph(scale=10, edgefactor=8, seed=2)
        result = BFSEngine(
            graph, paper_cluster(nodes=1), BFSConfig(kernel="cnative")
        ).run(0)
        assert result.visited > 0
