"""``repro-perf compare``: paired A/B runs of the end-to-end benchmark.

Two commits are measured the way the benchmark's own contract measures
them: each side is a fresh copy of its committed tree (``git archive``,
so neither side sees the other's compiled bytecode or kernel cache),
and ``benchmarks/e2e/run.py`` runs in it as a subprocess with
``PYTHONDONTWRITEBYTECODE=1``.  Each side gets one discarded warm-up
run first (it compiles the ``cnative`` kernel into that tree).  Then
the runs go in pairs, one at a time, alternating which side starts, so
a drift of the machine's speed during the comparison lands on both sides.

Per workload and ``end_to_end`` metric of ``BENCHMARK.json`` the
verdict reports each side's median and quartiles and an exact two-sided
sign test over the pairs.  ``sim_gteps_hmean`` is simulated time, so
it is compared exactly.  A metric that is significantly worse (or an
exact metric that moved the wrong way, or a run that failed) makes the
command exit 1.

``--aa`` runs a tree against itself: its verdicts measure the noise
floor of each workload, and no metric should come out significant.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "EXACT",
    "MetricVerdict",
    "judge",
    "pair_order",
    "run_pairs",
    "sign_test",
]

#: Metrics that must repeat bit for bit (simulated, not host time).
EXACT = frozenset({"sim_gteps_hmean"})
#: Two-sided significance level of the sign test.
ALPHA = 0.05
#: Measured pairs per workload, as the benchmark's gain rule asks (a
#: gain must win nine of ten pairs).  Each run lasts the benchmark's
#: own ``run_seconds``.
PAIRS = 10


def pair_order(pairs: int) -> list[tuple[str, str]]:
    """Which side runs first in each pair: base first, then change
    first, alternating."""
    return [
        ("base", "change") if i % 2 == 0 else ("change", "base")
        for i in range(pairs)
    ]


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties dropped): the binomial(n, 1/2) probability of a split at least
    this uneven."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass(frozen=True)
class MetricVerdict:
    """One metric of one workload over every pair."""

    name: str
    better: str  # "higher" or "lower"
    base: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    wins: int  # pairs where the change is better
    losses: int
    p: float
    verdict: str  # "better", "worse", "same", "identical" or "moved"

    @property
    def failed(self) -> bool:
        """A significant regression (exact metrics: any move the wrong
        way)."""
        return self.verdict == "worse"

    @property
    def rel_change(self) -> float:
        """Median change relative to the base median."""
        base = self.base[1]
        return (self.change[1] - base) / base if base else 0.0


def judge(
    name: str, better: str, base: list[float], change: list[float]
) -> MetricVerdict:
    """Verdict of one metric from paired runs (``base[i]`` and
    ``change[i]`` ran back to back)."""
    if len(base) != len(change) or not base:
        raise ValueError("judge needs the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p = sign_test(wins, losses)
    if name in EXACT:
        if wins == losses == 0:
            verdict = "identical"
        else:
            verdict = "worse" if losses else "moved"
    elif p < ALPHA:
        verdict = "better" if wins > losses else "worse"
    else:
        verdict = "same"
    return MetricVerdict(
        name, better, _quartiles(base), _quartiles(change), wins, losses,
        p, verdict,
    )


def run_pairs(run, workloads, metrics, pairs: int):
    """Measure ``workloads`` in ``pairs`` alternating pairs.

    ``run(side, workload)`` performs one run and returns its metric
    values (``None`` for a failed run); ``metrics`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.  Returns ``{workload:
    (verdicts, failed_runs)}``.
    """
    out = {}
    for workload in workloads:
        for side in ("base", "change"):
            run(side, workload)  # warm-up, discarded
        values = {"base": [], "change": []}
        failed = 0
        for order in pair_order(pairs):
            pair = {side: run(side, workload) for side in order}
            if None in pair.values():
                failed += 1
                continue
            for side, got in pair.items():
                values[side].append(got)
        verdicts = [
            judge(
                m["name"], m["better"],
                [v[m["name"]] for v in values["base"]],
                [v[m["name"]] for v in values["change"]],
            )
            for m in metrics
        ] if values["base"] else []
        out[workload] = (verdicts, failed)
    return out


# ---- the subprocess side ----------------------------------------------------


def _git(repo: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True
    ).stdout


def _materialise(repo: Path, rev: str, dest: Path) -> Path:
    """The committed tree of ``rev`` unpacked into ``dest``."""
    dest.mkdir(parents=True)
    subprocess.run(
        ["tar", "-x", "-C", str(dest)],
        input=_git(repo, "archive", "--format=tar", rev), check=True,
    )
    return dest


def _benchmark_run(tree: Path, workload: str):
    """One ``run.py`` run in ``tree``; its metric values, or ``None``
    when it failed or reported failed operations."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        print(f"  {tree.name} {workload}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    final = json.loads(lines[-1])
    return {k: v["value"] for k, v in final["metrics"].items()}


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def render(results) -> str:
    """The verdict table of :func:`run_pairs`' result."""
    lines = []
    for workload, (verdicts, failed) in results.items():
        lines.append(f"# {workload}" + (f"  ({failed} failed pairs)" if failed else ""))
        lines.append(
            f"{'metric':18s} {'base median [q1, q3]':>34s} "
            f"{'change median [q1, q3]':>34s} {'change':>8s} "
            f"{'+/-':>6s} {'p':>7s}  verdict"
        )
        for v in verdicts:
            lines.append(
                f"{v.name:18s} {_fmt(v.base):>34s} {_fmt(v.change):>34s} "
                f"{v.rel_change:+8.2%} {v.wins:>2d}/{v.losses:<3d} "
                f"{v.p:7.4f}  {v.verdict}"
            )
    return "\n".join(lines)


def compare_main(args) -> int:
    """``repro-perf compare``: build both trees, run, print, exit code."""
    base_rev, change_rev = args.base, args.change
    if args.aa:  # one revision, the named one or HEAD, on both sides
        base_rev = change_rev = base_rev or change_rev
    if base_rev is None:
        print("compare: name a base revision, or pass --aa", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-compare-") as tmp:
        try:
            repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel")
                        .decode().strip())
            trees = {
                "base": _materialise(repo, base_rev, Path(tmp) / "base"),
                "change": _materialise(repo, change_rev, Path(tmp) / "change"),
            }
        except subprocess.CalledProcessError as exc:
            print(f"compare: {' '.join(exc.cmd)} failed:\n"
                  f"{exc.stderr.decode(errors='replace')}", file=sys.stderr)
            return 2
        contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in contract["workloads"]]
        print(f"base {base_rev} vs change {change_rev}: {PAIRS} pairs of "
              f"{', '.join(workloads)}", file=sys.stderr)
        results = run_pairs(
            lambda side, w: _benchmark_run(trees[side], w),
            workloads, contract["end_to_end"], PAIRS,
        )
    print(render(results))
    bad = any(
        failed or not verdicts or any(v.failed for v in verdicts)
        for verdicts, failed in results.values()
    )
    return 1 if bad else 0
