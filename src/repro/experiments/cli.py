"""``repro-experiment`` console entry point.

Usage::

    repro-experiment list
    repro-experiment fig09 [--roots N] [--offset K] [--quick]
    repro-experiment fig09 --trace-out /tmp/t.json --metrics-out /tmp/m.json
    repro-experiment fig09 --kernel reference
    repro-experiment all

``--trace-out`` additionally executes one fully-instrumented BFS run
representative of the experiment and writes its simulated timeline as
Chrome trace-event JSON (one track per simulated rank — open it at
https://ui.perfetto.dev), plus a ``<PATH>.events.jsonl`` span/collective
event log next to it.  When several experiments run (``all``), each
experiment writes to its own file, named by
:func:`trace_output_path`: ``PATH.<experiment>.json`` (and
``PATH.<experiment>.json.events.jsonl``) — experiments never clobber
each other's traces.  ``--attribution`` prints the per-level /
whole-run performance attribution (the Fig. 11-style compute/comm
breakdown; see ``repro-perf attribute``) of that same instrumented
run.  ``--metrics-out`` dumps the process-wide metrics registry
(experiment wall-clocks, run counters, communication volumes) as JSON.
``--host-profile`` / ``--host-profile-out`` report the *host* cost
(per-phase wall seconds, tracemalloc peaks, collapsed stacks) of the
same reference run.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["main", "trace_output_path"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce a table/figure of 'Evaluation and Optimization of "
            "Breadth-First Search on NUMA Cluster' (CLUSTER 2012)"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help="experiment id (e.g. fig09), 'all', or 'list' (the default "
        "— so '--kernel list' works without naming an experiment)",
    )
    parser.add_argument(
        "--roots", type=int, default=3, help="BFS roots per evaluation"
    )
    parser.add_argument(
        "--offset",
        type=int,
        default=15,
        help="functional runs execute at paper_scale - offset",
    )
    parser.add_argument(
        "--seed", type=int, default=4, help="root sampling seed"
    )
    parser.add_argument(
        "--no-weak-node",
        action="store_true",
        help="model all 16 nodes with healthy InfiniBand",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fastest settings (2 roots)"
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also write the result rows as CSV to PATH "
        "(the experiment id is appended when running several)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="run one instrumented BFS per experiment and write its "
        "simulated timeline as Chrome trace-event JSON to PATH "
        "(Perfetto-loadable; the experiment id is appended when "
        "running several); a .events.jsonl log is written next to it",
    )
    parser.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-level / whole-run performance attribution "
        "(compute vs. each communication component, critical rank, "
        "stragglers) of one instrumented reference run per experiment; "
        "shares the run with --trace-out when both are given",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the Graph500 parent-tree validation on one reference "
        "BFS run per experiment (the five checks of repro.core.validate); "
        "shares the run with --trace-out/--attribution when given. "
        "A validation failure exits non-zero with a typed error",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry (wall-clocks, counters, "
        "histograms) as JSON to PATH at exit",
    )
    parser.add_argument(
        "--host-profile",
        action="store_true",
        help="profile the *host* cost of the reference run (per-phase "
        "wall seconds + tracemalloc peaks) and print the table; "
        "see docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--host-profile-out",
        metavar="PATH",
        help="also write the host profile as JSON to PATH and the "
        "flamegraph-compatible collapsed stacks to PATH.collapsed",
    )
    parser.add_argument(
        "--kernel",
        metavar="BACKEND",
        help="BFS kernel backend for every engine this process builds "
        "(exported as $REPRO_KERNEL; see 'repro-experiment list' docs "
        "and docs/PERFORMANCE.md). Backends are bit-identical on all "
        "reproduced numbers — this only changes speed. Use "
        "'--kernel list' to print every registered backend with its "
        "availability",
    )
    parser.add_argument(
        "--codec",
        metavar="CODEC",
        help="frontier codec for every allgather this process simulates "
        "(exported as $REPRO_CODEC; see docs/COMMUNICATION.md). Codecs "
        "are lossless — functional results are bit-identical to raw; "
        "only the simulated wire bytes and communication time change",
    )
    return parser


def trace_output_path(path: str, eid: str, many: bool) -> str:
    """Where ``--trace-out PATH`` writes experiment ``eid``'s trace.

    A single experiment writes to ``PATH`` verbatim; when several run
    (``repro-experiment all``) each gets ``PATH.<experiment>.json`` so
    no experiment clobbers another's trace.  The JSONL event log always
    lands next to the trace as ``<trace>.events.jsonl``.
    """
    return path if not many else f"{path}.{eid}.json"


def _reference_run(
    eid: str, settings, registry, instrumented: bool, hostprof=None
):
    """One reference BFS run for ``eid`` (traced when ``instrumented``).

    Returns ``(engine, root, result)`` so callers can validate the
    parent tree against the engine's graph as well as export the trace.
    """
    from repro.experiments.registry import reference_engine

    tracer = None
    if instrumented:
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer(metrics=registry)
    engine, root = reference_engine(
        eid, settings, tracer=tracer, metrics=registry, hostprof=hostprof
    )
    if hostprof is not None:
        with hostprof:
            result = engine.run(root)
    else:
        result = engine.run(root)
    return engine, root, result


def _write_trace(path: str, result) -> None:
    """Export an instrumented run's trace + event log."""
    from repro.obs.export import write_chrome_trace, write_events_jsonl

    write_chrome_trace(path, result)
    events_path = f"{path}.events.jsonl"
    write_events_jsonl(events_path, result.telemetry)
    print(
        f"[trace written to {path} ({result.counts.num_ranks} rank tracks, "
        f"{result.levels} levels); events to {events_path}]"
    )


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.kernel:
        import os

        from repro.core.kernels import DEFAULT_BACKEND, available_backends

        if args.kernel == "list":
            detail = available_backends(detail=True)
            width = max(len(name) for name in detail)
            print(f"{'backend':<{width}}  available  note")
            for name, (ok, reason) in detail.items():
                note = "default" if name == DEFAULT_BACKEND else (reason or "")
                row = f"{name:<{width}}  {'yes' if ok else 'no':<9}  {note}"
                print(row.rstrip())
            return 0
        if args.kernel not in available_backends():
            print(
                f"unknown kernel backend {args.kernel!r}; available: "
                f"{', '.join(available_backends())} "
                f"(or '--kernel list' for availability)",
                file=sys.stderr,
            )
            return 2
        os.environ["REPRO_KERNEL"] = args.kernel
    if args.codec:
        import os

        from repro.mpi.codecs import available_codecs

        if args.codec not in available_codecs():
            print(
                f"unknown frontier codec {args.codec!r}; available: "
                f"{', '.join(available_codecs())}",
                file=sys.stderr,
            )
            return 2
        os.environ["REPRO_CODEC"] = args.codec
    if args.experiment == "list":
        for eid, mod in EXPERIMENTS.items():
            print(f"{eid:12s} {mod.TITLE}")
        return 0
    settings = ExperimentSettings(
        scale_offset=args.offset,
        num_roots=args.roots,
        seed=args.seed,
        include_weak_node=not args.no_weak_node,
    )
    if args.quick:
        settings = settings.quick()

    from repro.obs.metrics import default_registry

    registry = default_registry()
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    many = len(ids) > 1
    for eid in ids:
        if eid not in EXPERIMENTS:
            print(f"unknown experiment {eid!r}; try 'list'", file=sys.stderr)
            return 2
        start = time.perf_counter()
        result = run_experiment(eid, settings)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        if args.csv:
            path = args.csv if not many else f"{args.csv}.{eid}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result.to_csv())
            print(f"[csv written to {path}]")
        want_hostprof = bool(args.host_profile or args.host_profile_out)
        if args.trace_out or args.attribution or args.validate or want_hostprof:
            hostprof = None
            if want_hostprof:
                from repro.obs.hostprof import HostProfiler

                hostprof = HostProfiler()
            engine, ref_root, traced = _reference_run(
                eid, settings, registry,
                instrumented=bool(args.trace_out or args.attribution),
                hostprof=hostprof,
            )
            if args.trace_out:
                _write_trace(trace_output_path(args.trace_out, eid, many), traced)
            if args.attribution:
                print(traced.telemetry.attribution.to_text())
            if hostprof is not None:
                _report_host_profile(hostprof, args.host_profile_out, eid, many)
            if args.validate:
                import json

                from repro.core.validate import validate_parent_tree
                from repro.errors import ValidationError

                try:
                    validate_parent_tree(engine.graph, ref_root, traced.parent)
                except ValidationError as exc:
                    print(
                        f"[validation FAILED for {eid}: "
                        f"{json.dumps(exc.to_dict(), sort_keys=True)}]",
                        file=sys.stderr,
                    )
                    return 1
                print(
                    f"[validated: reference-run parent tree passes the "
                    f"Graph500 checks ({traced.visited} vertices reached, "
                    f"{traced.levels} levels)]"
                )
        print(f"[{eid} completed in {elapsed:.1f}s]")
        print()

    if many:
        _print_wall_clock_summary(registry, ids)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.to_json())
        print(f"[metrics written to {args.metrics_out}]")
    return 0


def _report_host_profile(hostprof, out: str | None, eid: str, many: bool) -> None:
    """Print (and optionally export) one reference run's host profile."""
    profile = hostprof.report()
    print(profile.to_text())
    if out:
        import json

        path = out if not many else f"{out}.{eid}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(profile.as_dict(), fh, indent=2, sort_keys=True)
        collapsed_path = f"{path}.collapsed"
        hostprof.write_collapsed(collapsed_path)
        print(
            f"[host profile written to {path}; collapsed stacks to "
            f"{collapsed_path} (flamegraph.pl / speedscope.app)]"
        )


def _print_wall_clock_summary(registry, ids: list[str]) -> None:
    """Per-experiment wall-clock lines, sourced from the metrics
    registry's ``experiment.wall_seconds`` histograms."""
    snapshot = registry.as_dict()["histograms"]
    total = 0.0
    print("wall-clock summary:")
    for eid in ids:
        summ = snapshot.get(
            f"experiment.wall_seconds{{experiment={eid}}}"
        )
        if summ is None:
            continue
        total += summ["sum"]
        print(
            f"  {eid:12s} {summ['sum']:7.1f}s"
            + (f"  ({summ['count']} runs)" if summ["count"] > 1 else "")
        )
    print(f"  {'total':12s} {total:7.1f}s")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
