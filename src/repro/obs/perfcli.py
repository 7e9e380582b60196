"""``repro-perf``: attribution, drift and baseline-diff from the shell.

Four subcommands, on top of :mod:`repro.obs.analyze`,
:mod:`repro.obs.baseline` and :mod:`repro.obs.compare`:

* ``repro-perf attribute [--experiment fig11]`` — run the experiment's
  instrumented reference BFS and print the Fig. 11/12/14-style
  per-level and whole-run breakdown (compute vs. the four communication
  components, critical rank, imbalance, stragglers).
* ``repro-perf drift [--experiment fig11]`` — same run, then check the
  pricing / trace / analytic prediction layers against the simulated
  actuals; ``--fail-on-drift`` turns flags into a non-zero exit.
* ``repro-perf diff OLD.json NEW.json --fail-on-regress PCT`` — compare
  two pytest-benchmark files under the direction policy and exit
  non-zero on any gated regression (the CI perf-gate).  ``--json -``
  writes the verdict to stdout instead of a file.
* ``repro-perf compare BASE [CHANGE] [--aa]`` — paired runs of the
  end-to-end benchmark (``benchmarks/e2e/run.py``) between two commits,
  with medians, quartiles and a sign test per metric; exits 1 on a
  significant regression.

Exit codes: 0 clean; 1 gate failure (regression / drift); 2 usage, or
— for ``diff --fail-on-incomparable`` — context-incomparable benchmark
pairs with no regression (so CI can tell "slower" from "not the same
measurement").  A regression always wins: 1 beats 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-perf`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="performance attribution, model-drift and baseline diffing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_attr = sub.add_parser(
        "attribute",
        help="per-level / whole-run attribution of an instrumented run",
    )
    p_attr.add_argument(
        "--experiment",
        default="fig11",
        help="experiment whose reference configuration to run (default fig11)",
    )
    p_attr.add_argument(
        "--quick", action="store_true", help="smallest functional scale"
    )
    p_attr.add_argument(
        "--top", type=int, default=3, help="straggler levels to list"
    )
    p_attr.add_argument(
        "--json", metavar="PATH", help="also write the attribution as JSON"
    )

    p_drift = sub.add_parser(
        "drift", help="check model predictions against simulated actuals"
    )
    p_drift.add_argument("--experiment", default="fig11")
    p_drift.add_argument("--quick", action="store_true")
    p_drift.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="flagging threshold for pricing/trace layers, %% (default 1)",
    )
    p_drift.add_argument(
        "--analytic-threshold",
        type=float,
        default=100.0,
        help="flagging threshold for the closed-form analytic layer, %% "
        "(default 100: the model approximates, it does not reprice)",
    )
    p_drift.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit 1 when any component drifts past its threshold",
    )
    p_drift.add_argument("--json", metavar="PATH")

    p_diff = sub.add_parser(
        "diff", help="diff two pytest-benchmark JSON files"
    )
    p_diff.add_argument("old", help="baseline BENCH_*.json")
    p_diff.add_argument("new", help="candidate BENCH_*.json")
    p_diff.add_argument(
        "--fail-on-regress",
        type=float,
        default=10.0,
        metavar="PCT",
        help="tolerance for directional metrics, %% (default 10)",
    )
    p_diff.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        metavar="PCT",
        help="tolerance for wall-clock stats, %% (default 5x the main one)",
    )
    p_diff.add_argument(
        "--no-wall",
        action="store_true",
        help="ignore wall-clock stats (baselines from another machine)",
    )
    p_diff.add_argument(
        "--json",
        metavar="PATH",
        help="write the JSON verdict here ('-' for stdout)",
    )
    p_diff.add_argument(
        "--fail-on-incomparable",
        action="store_true",
        help="exit 2 when any benchmark pair is context-incomparable "
        "(a regression still exits 1)",
    )

    p_cmp = sub.add_parser(
        "compare",
        help="paired A/B runs of benchmarks/e2e between two commits",
    )
    p_cmp.add_argument("base", nargs="?", help="base revision")
    p_cmp.add_argument(
        "change", nargs="?", default="HEAD",
        help="changed revision (default HEAD)",
    )
    p_cmp.add_argument(
        "--aa", action="store_true",
        help="run one revision (the named one, default HEAD) against "
        "itself: the noise floor",
    )
    p_cmp.add_argument(
        "--workload", action="append",
        help="workload to compare (repeatable; default every workload)",
    )
    return parser


def _traced_run(experiment: str, quick: bool):
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.registry import reference_engine
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import SpanTracer

    settings = ExperimentSettings()
    if quick:
        settings = settings.quick()
    engine, root = reference_engine(
        experiment,
        settings,
        tracer=SpanTracer(),
        metrics=MetricsRegistry(),
    )
    return engine, engine.run(root)


def _cmd_attribute(args) -> int:
    from repro.obs.analyze import attribute_run

    _, result = _traced_run(args.experiment, args.quick)
    attr = (
        result.telemetry.attribution
        if result.telemetry is not None
        and result.telemetry.attribution is not None
        else attribute_run(result)
    )
    print(attr.to_text(top=args.top))
    if args.json:
        Path(args.json).write_text(json.dumps(attr.as_dict(), indent=2))
        print(f"attribution JSON written to {args.json}", file=sys.stderr)
    return 0


def _cmd_drift(args) -> int:
    from repro.obs.analyze import ModelDriftReport, detect_model_drift

    engine, result = _traced_run(args.experiment, args.quick)
    exact = detect_model_drift(
        result,
        engine,
        threshold=args.threshold / 100.0,
        sources=("pricing", "trace"),
    )
    analytic = detect_model_drift(
        result,
        engine,
        threshold=args.analytic_threshold / 100.0,
        sources=("analytic",),
    )
    report = ModelDriftReport(
        threshold=args.threshold / 100.0,
        components=exact.components + analytic.components,
    )
    print(report.to_text())
    if args.json:
        doc = report.as_dict()
        doc["analytic_threshold"] = args.analytic_threshold / 100.0
        Path(args.json).write_text(json.dumps(doc, indent=2))
        print(f"drift JSON written to {args.json}", file=sys.stderr)
    if args.fail_on_drift and not report.ok:
        return 1
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.baseline import Baseline, diff_baselines

    old = Baseline.from_benchmark_json(args.old)
    new = Baseline.from_benchmark_json(args.new)
    verdict = diff_baselines(
        old,
        new,
        tolerance_pct=args.fail_on_regress,
        wall_tolerance_pct=args.wall_tolerance,
        include_wall=not args.no_wall,
    )
    if args.json == "-":
        # Verdict JSON owns stdout; the human table moves to stderr.
        print(verdict.to_text(), file=sys.stderr)
        print(verdict.to_json())
    else:
        print(verdict.to_text())
        if args.json:
            Path(args.json).write_text(verdict.to_json())
            print(f"verdict JSON written to {args.json}", file=sys.stderr)
    if not verdict.ok:
        return 1
    if args.fail_on_incomparable and verdict.incomparable:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "attribute":
        return _cmd_attribute(args)
    if args.command == "drift":
        return _cmd_drift(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "compare":
        from repro.obs.compare import compare_main

        return compare_main(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
