"""Self-check of the benchmark harness at --smoke sizes (about 15 s).

Not collected by tier-1 (``testpaths = tests``); run it explicitly::

    python3 -m pytest -q benchmarks/e2e/test_selfcheck.py
    python3 benchmarks/e2e/test_selfcheck.py

It checks the harness, not the program: every declared metric is emitted
under a well-formed name, span trees add up, and a traced run leaves the
program exactly as it found it.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--trace", str(trace),
                         "--smoke"])
    final = json.loads(buf.getvalue().strip().splitlines()[-1])
    final["exit"] = code
    return final


def test_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


def test_every_declared_metric_is_emitted_on_every_workload():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in CONTRACT[key]}
        for workload in WORKLOADS:
            final = _smoke(workload, trace)
            assert final["exit"] == 0 and final["correct"], (workload, trace, final)
            assert set(final) == {"correct", "attempted", "failed", "metrics", "exit"}
            assert final["attempted"] >= 1 and final["failed"] == 0
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            assert got == declared, (workload, trace)
            assert all(isinstance(v["value"], float) for v in final["metrics"].values())
            if trace == 0:  # the driver divides by these medians
                assert all(v["value"] > 0 for v in final["metrics"].values()), (workload, final)


def test_span_self_times_sum_to_their_roots():
    for workload, root in (("g500-s16-n4-auto", "engine.run"),
                           ("paper-figs", "experiments.run"),
                           ("serve-cold", "session.run_batch")):
        _smoke(workload, 1)
        with open(run.OUT / f"trace-{workload}.json") as fh:
            rec = spans.Recorder()
            rec.spans = json.load(fh)["spans"]
        total, covered = rec.tree_coverage(root)
        assert total > 0, workload
        assert abs(covered - total) <= 0.01 * total, (workload, covered, total)
        assert all(s[spans.END] >= s[spans.START] for s in rec.spans)


def test_restore_puts_every_original_back():
    from repro.core.kernels import get_backend
    from repro.mpi.codecs import get_codec

    absent = object()
    ins = spans.install(
        spans.Recorder(), type(get_backend("cnative")), (type(get_codec("rle-bitmap")),)
    )
    wrapped = ins.wrapped()
    assert len(wrapped) >= 15
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is not original
    ins.restore()
    for owner, attr, original in wrapped:
        now = vars(owner).get(attr, absent)
        if original is spans._ABSENT:  # inherited: the override is gone again
            assert now is absent, (owner, attr)
        else:
            assert now is original, (owner, attr)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
