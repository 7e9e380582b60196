"""Tests for the experiment runners: every table/figure must produce
well-formed output, and the qualitative paper claims (DESIGN.md §4) must
hold at test-speed settings."""

import os

import pytest

from repro.core.engine import BFSEngine
from repro.experiments import (
    EXPERIMENTS,
    ExperimentSettings,
    get_experiment,
    run_experiment,
)
from repro.experiments import common as exp_common
from repro.experiments.cli import main as cli_main
from repro.model import predict as predict_mod
from repro.mpi.codecs import resolve_codec

FAST = ExperimentSettings(scale_offset=16, num_roots=2)


#: Functional BFS runs one pass of every experiment makes at FAST settings.
BFS_RUNS = []


@pytest.fixture(scope="module")
def results():
    """Run every experiment once at fast settings, on a cleared counts
    memo, and share the output."""
    runs = []
    real_run = BFSEngine.run

    def counted(self, root):
        runs.append(root)
        return real_run(self, root)

    predict_mod._COUNT_MEMO.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BFSEngine, "run", counted)
        out = {eid: run_experiment(eid, FAST) for eid in EXPERIMENTS}
    BFS_RUNS.append(len(runs))
    return out


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "table1",
            "fig03",
            "fig04",
            "fig06",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "text_hybrid",
            "ext_modern",
        }
        assert set(EXPERIMENTS) == expected

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_paper_scale_mapping(self):
        assert exp_common.paper_scale_for_nodes(1) == 28
        assert exp_common.paper_scale_for_nodes(16) == 32
        with pytest.raises(ValueError):
            exp_common.paper_scale_for_nodes(3)


class TestWellFormed:
    def test_each_distinct_traversal_runs_once(self, results):
        # Count once, price many: the sweeps re-price memoised counts
        # (172 runs before the counts memo, 24 with it).  Under the auto
        # codec the communication block and the cluster join the count
        # key, so only repeated identical evaluations share (62 runs).
        assert FAST == ExperimentSettings().quick()
        bound = 64 if resolve_codec(None).name == "auto" else 40
        assert BFS_RUNS == [BFS_RUNS[0]] and BFS_RUNS[0] <= bound

    def test_every_experiment_renders(self, results):
        for eid, res in results.items():
            text = res.to_text()
            assert res.title in text
            assert res.rows, eid
            for row in res.rows:
                assert len(row) == len(res.headers), eid

    def test_every_experiment_records_claims(self, results):
        for eid, res in results.items():
            assert res.claims, f"{eid} records no paper-vs-measured claims"

    def test_no_violated_claims(self, results):
        for eid, res in results.items():
            for name, (_paper, measured) in res.claims.items():
                assert "VIOLATED" not in measured, f"{eid}: {name}: {measured}"


class TestFigureClaims:
    def test_fig03_numa_bands(self, results):
        rows = {r[0]: r[2] for r in results["fig03"].rows}
        eight = rows["8 cores (1 socket, local)"]
        inter = rows["64 cores (8 sockets, interleave)"]
        bind = rows["64 cores (8 sockets, bind-to-socket)"]
        assert 5.0 < eight < 8.5  # paper: 6.98
        assert 1.5 < inter / eight < 4.0  # paper: 2.77
        assert 4.0 < bind / eight < 9.0  # paper: 6.31
        assert bind > inter

    def test_fig04_monotone_and_half(self, results):
        fractions = [r[2] for r in results["fig04"].rows]
        assert fractions == sorted(fractions)
        assert 0.4 < fractions[0] < 0.6  # 1 ppn ~ half of peak

    def test_fig09_stack_ordering(self, results):
        rows = {r[0]: r[1] for r in results["fig09"].rows}
        order = [
            "Original.ppn=1",
            "Original.ppn=8",
            "Share in_queue",
            "Share all",
            "Par allgather",
            "Granularity",
        ]
        teps = [rows[name] for name in order]
        assert teps == sorted(teps)
        assert 15 < teps[-1] < 90  # paper: 39.2 GTEPS

    def test_fig10_policy_ordering(self, results):
        rows = {r[0]: r[1] for r in results["fig10"].rows}
        assert rows["ppn=8.bind-to-socket"] == max(rows.values())
        assert rows["ppn=1.interleave"] >= rows["ppn=1.noflag"]
        assert rows["ppn=8.noflag"] == min(rows.values())

    def test_fig11_binding_speeds_up_computation(self, results):
        rows = {r[0]: r for r in results["fig11"].rows}
        inter = rows["ppn=1.interleave"]
        bind = rows["ppn=8.bind-to-socket"]
        # bottom-up comp column index 3, top-down comp index 1
        assert bind[3] < inter[3]
        assert bind[1] < inter[1]

    def test_fig12_proportion_grows(self, results):
        props = [float(r[5].rstrip("%")) for r in results["fig12"].rows]
        assert props == sorted(props)
        assert props[-1] > 30  # paper: 54% at 8 nodes
        ratios = [r[4] for r in results["fig12"].rows[1:]]
        assert all(r > 1.5 for r in ratios)  # ppn8 comm >> ppn1 comm

    def test_fig13_each_optimization_cuts_comm(self, results):
        for row in results["fig13"].rows:
            series = row[2:]
            assert series[0] > series[1] > series[3]

    def test_fig14_proportion_reduction(self, results):
        last = results["fig14"].rows[-1]  # 8 nodes
        unopt = float(last[2].rstrip("%"))
        opt = float(last[5].rstrip("%"))
        assert unopt > 2.5 * opt  # paper: 54% -> 18%

    def test_fig15_weak_scaling(self, results):
        rows = results["fig15"].rows
        par = [r[6] for r in rows]
        # Optimized TEPS rises monotonically through 8 nodes.
        assert par[:4] == sorted(par[:4])
        # 16-node point grows less than 2x over 8 nodes (weak node dent).
        assert par[4] / par[3] < 2.0

    def test_fig16_granularity_shape(self, results):
        rows = {r[0]: r[1] for r in results["fig16"].rows}
        assert rows[256] > rows[64]  # paper: +10.2%
        assert rows[4096] < rows[64]
        best = max(rows, key=rows.get)
        assert best in (128, 256, 512)  # paper: 256

    def test_text_hybrid_dominates(self, results):
        rows = {r[0]: r[3] for r in results["text_hybrid"].rows}
        assert 8 < rows["pure top-down"] < 80  # paper: 27.3x
        assert 2 < rows["pure bottom-up"] < 15  # paper: 4.7x

    def test_table1_matches_paper(self, results):
        paper, measured = results["table1"].claims["total cores"]
        assert paper == measured == "1024"


def _column(eid, key_col, val_col):
    return lambda results: {r[key_col]: r[val_col] for r in results[eid].rows}


_FIG09 = _column("fig09", 0, 1)
_FIG10 = _column("fig10", 0, 1)
_FIG16 = _column("fig16", 0, 1)


def _fig09_step(later, earlier):
    return lambda results: _FIG09(results)[later] / _FIG09(results)[earlier]


def _fig13_row(results, nodes):
    (row,) = [r for r in results["fig13"].rows if r[0] == nodes]
    return row


#: Every ratio the paper states, the model's value at ``FAST`` settings
#: (deterministic: seeded graphs and roots), and the relative distance
#: from the paper's number the model achieves today.  ``model`` pins
#: the figure — churn in the core that drifts it fails here; ``err`` is
#: how far from the paper a deliberate re-pin may sit without someone
#: also widening it.
PAPER_RATIOS = [
    # (id, paper, model, err, measured-from-results)
    ("fig09 NUMA mapping, ppn=8 / ppn=1", 1.53, 1.6210722, 0.060,
     _fig09_step("Original.ppn=8", "Original.ppn=1")),
    ("fig09 Share in_queue / Original.ppn=8", 1.341, 1.2149541, 0.095,
     _fig09_step("Share in_queue", "Original.ppn=8")),
    ("fig09 Share all / Share in_queue", 1.065, 1.0101753, 0.052,
     _fig09_step("Share all", "Share in_queue")),
    ("fig09 Par allgather / Share all", 1.046, 1.1957141, 0.144,
     _fig09_step("Par allgather", "Share all")),
    ("fig09 Granularity / Par allgather", 1.148, 1.1279040, 0.018,
     _fig09_step("Granularity", "Par allgather")),
    ("fig09 overall, Granularity / Original.ppn=1", 2.44, 2.6832335, 0.100,
     _fig09_step("Granularity", "Original.ppn=1")),
    ("fig10 bind-to-socket / ppn=1.interleave", 1.74, 2.2532278, 0.295,
     lambda res: _FIG10(res)["ppn=8.bind-to-socket"]
     / _FIG10(res)["ppn=1.interleave"]),
    ("fig10 bind-to-socket / ppn=8.noflag", 2.08, 3.8932954, 0.872,
     lambda res: _FIG10(res)["ppn=8.bind-to-socket"]
     / _FIG10(res)["ppn=8.noflag"]),
    ("fig12 ppn=8 comm / ppn=1 comm, 8 nodes", 2.34, 2.9473807, 0.260,
     lambda res: res["fig12"].rows[-1][4]),
    ("fig13 comm cut Original.ppn=8 / Par allgather, 8 nodes", 4.07,
     5.8007767, 0.426,
     lambda res: _fig13_row(res, 8)[2] / _fig13_row(res, 8)[5]),
    ("fig16 best granularity", 256, 256, 0.0,
     lambda res: max(_FIG16(res), key=_FIG16(res).get)),
    ("fig16 g=256 / g=64", 1.102, 1.1279040, 0.024,
     lambda res: _FIG16(res)[256] / _FIG16(res)[64]),
]


@pytest.mark.skipif(
    os.environ.get("REPRO_CODEC", "raw") not in ("", "raw"),
    reason="the paper's ratios (and the pins) are for uncompressed frontiers",
)
class TestPaperRatios:
    @pytest.mark.parametrize(
        "paper, model, err, measure",
        [pytest.param(*row[1:], id=row[0]) for row in PAPER_RATIOS],
    )
    def test_ratio_pinned(self, results, paper, model, err, measure):
        measured = measure(results)
        assert measured == pytest.approx(model, rel=1e-6)
        assert abs(measured / paper - 1) <= err


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2

    def test_run_one(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_fig04_quick(self, capsys):
        assert cli_main(["fig04", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "paper-vs-measured" in out
