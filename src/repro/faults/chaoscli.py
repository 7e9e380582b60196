"""``repro-chaos`` console entry point: the fault-injection campaign.

Usage::

    repro-chaos                       # sweep the full scenario catalogue
    repro-chaos crash-early straggler # just these scenarios
    repro-chaos list                  # print the catalogue
    repro-chaos --scale 12 --nodes 2 --json /tmp/chaos.json
    repro-chaos serve                 # serve-chaos campaign (all scenarios)
    repro-chaos serve mixed --json /tmp/serve-chaos.json

Each campaign first runs a fault-free baseline, then replays the exact
same BFS (same graph, root, configuration) under every requested
scenario from the seeded catalogue (:func:`FaultPlan.scenario`).  Every
run is validated: a scenario passes only when its parent tree is
bit-identical to the baseline *and* survives the Graph500 checks of
:func:`~repro.core.validate.validate_parent_tree` — or when it aborts
with a typed, structured :class:`~repro.errors.ReproError`.  A silently
wrong answer is reported as ``mismatch`` and fails the campaign.

Outcomes:

``recovered``
    fault tolerance actually acted (retries and/or rollbacks) and the
    result is bit-identical and validated;
``degraded``
    only pricing faults fired (stragglers, link degradation) — result
    identical, simulated time worse;
``clean``
    nothing in the plan fired on this workload;
``aborted``
    the run terminated with a typed error (reported with full context);
``mismatch``
    the recovered answer differs from the baseline — always a bug.

Exit status is non-zero when any scenario aborts or mismatches.
``--json`` writes the machine-readable ``repro.chaos/v1`` report.

``repro-chaos serve`` runs the *serving-layer* chaos campaign instead
(:mod:`repro.faults.servechaos`): injected session errors, batch
stragglers, dispatcher kills and cache poison against a live
resilience-enabled scheduler, each scenario required to end
``recovered`` — every query terminally answered, the SLO monitor
burning during injection and ``ok`` after recovery.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core.config import BFSConfig
from repro.core.engine import BFSEngine
from repro.core.validate import validate_parent_tree
from repro.errors import ReproError, ValidationError
from repro.faults.plan import FaultPlan, available_scenarios
from repro.faults.recovery import ResilienceConfig
from repro.obs.log import get_logger
from repro.util.formatting import format_table

__all__ = ["main", "run_campaign", "SCHEMA"]

SCHEMA = "repro.chaos/v1"

log = get_logger("chaos")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Deterministic fault-injection campaign over the simulated "
            "NUMA-cluster BFS: crash, straggler, flaky-link, transient "
            "and corruption scenarios, each required to recover "
            "bit-identically or abort with a typed error"
        ),
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenarios to run (default: the full catalogue); "
        "'list' prints the catalogue",
    )
    parser.add_argument(
        "--scale", type=int, default=13, help="R-MAT graph scale (2^scale vertices)"
    )
    parser.add_argument(
        "--nodes", type=int, default=2, help="simulated node count"
    )
    parser.add_argument(
        "--ppn", type=int, default=None,
        help="processes per node (default: one per socket)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-schedule seed"
    )
    parser.add_argument(
        "--graph-seed", type=int, default=2, help="R-MAT generator seed"
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="checkpoint period in levels (0 disables checkpointing; "
        "crash/corruption scenarios then abort with a typed error)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the Graph500 parent-tree validation of every run "
        "(validation is on by default in the chaos campaign)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help=f"write the {SCHEMA} campaign report as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics registry (fault.* / recovery.* counters) "
        "as JSON to PATH at exit",
    )
    parser.add_argument(
        "--kernel", metavar="BACKEND",
        help="BFS kernel backend (exported as $REPRO_KERNEL)",
    )
    parser.add_argument(
        "--codec", metavar="CODEC",
        help="frontier codec (exported as $REPRO_CODEC)",
    )
    return parser


def _scenario_entry(
    name, plan, engine, baseline, validate, graph, root
) -> dict:
    """Run one scenario and build its report entry."""
    entry = {"name": name, "plan": plan.as_dict()}
    try:
        result = engine.run(root)
    except ReproError as exc:
        entry["outcome"] = "aborted"
        entry["error"] = exc.to_dict()
        return entry

    identical = bool(np.array_equal(result.parent, baseline.parent))
    validated = None
    if validate:
        try:
            validate_parent_tree(graph, root, result.parent)
            validated = True
        except ValidationError:
            validated = False
    rec = result.recovery
    if not identical or validated is False:
        outcome = "mismatch"
    elif rec is not None and rec.recovered:
        outcome = "recovered"
    elif rec is not None and rec.fault_events:
        outcome = "degraded"
    else:
        outcome = "clean"
    entry.update(
        outcome=outcome,
        identical=identical,
        validated=validated,
        seconds=result.seconds,
        overhead_seconds=(
            0.0 if rec is None else rec.overhead_seconds
        ),
        overhead_pct=(
            (result.seconds - baseline.seconds) / baseline.seconds * 100.0
            if baseline.seconds > 0
            else 0.0
        ),
        retries=0 if rec is None else rec.retries,
        rollbacks=0 if rec is None else rec.rollbacks,
        checkpoints=0 if rec is None else rec.checkpoints,
        replayed_levels=[] if rec is None else list(rec.replayed_levels),
        fault_events=[] if rec is None else [dict(e) for e in rec.fault_events],
    )
    return entry


def run_campaign(
    scenarios: list[str],
    *,
    scale: int = 13,
    nodes: int = 2,
    ppn: int | None = None,
    seed: int = 0,
    graph_seed: int = 2,
    checkpoint_every: int = 1,
    validate: bool = True,
    metrics=None,
) -> dict:
    """Execute a chaos campaign and return the ``repro.chaos/v1`` report."""
    from dataclasses import replace

    from repro.graph.rmat import rmat_graph
    from repro.machine.spec import paper_cluster

    graph = rmat_graph(scale, seed=graph_seed)
    cluster = paper_cluster(nodes=nodes)
    config = BFSConfig.granularity_variant()
    if ppn is not None:
        config = replace(config, ppn=ppn)
    root = int(np.argmax(graph.degrees()))

    baseline_engine = BFSEngine(graph, cluster, config, metrics=metrics)
    baseline = baseline_engine.run(root)
    if validate:
        validate_parent_tree(graph, root, baseline.parent)
    num_ranks = baseline_engine.mapping.num_ranks

    entries = []
    for name in scenarios:
        plan = FaultPlan.scenario(
            name, seed,
            num_ranks=num_ranks, nodes=nodes, depth=baseline.levels,
        )
        engine = BFSEngine(
            graph, cluster, config,
            metrics=metrics,
            faults=plan,
            resilience=ResilienceConfig(checkpoint_every=checkpoint_every),
        )
        entries.append(
            _scenario_entry(
                name, plan, engine, baseline, validate, graph, root
            )
        )

    ok = all(
        e["outcome"] in ("recovered", "degraded", "clean") for e in entries
    )
    return {
        "schema": SCHEMA,
        "scale": scale,
        "nodes": nodes,
        "ppn": ppn,
        "num_ranks": num_ranks,
        "seed": seed,
        "graph_seed": graph_seed,
        "root": root,
        "checkpoint_every": checkpoint_every,
        "validate": validate,
        "baseline": {
            "levels": baseline.levels,
            "seconds": baseline.seconds,
            "teps": baseline.teps,
        },
        "scenarios": entries,
        "ok": ok,
    }


def _report_table(report: dict) -> str:
    headers = [
        "scenario", "outcome", "retries", "rollbacks", "replayed",
        "ckpts", "overhead%", "validated",
    ]
    rows = []
    for e in report["scenarios"]:
        if e["outcome"] == "aborted":
            err = e["error"]
            rows.append(
                [e["name"], "aborted", "-", "-", "-", "-", "-",
                 err["type"]]
            )
            continue
        rows.append(
            [
                e["name"],
                e["outcome"],
                e["retries"],
                e["rollbacks"],
                len(e["replayed_levels"]),
                e["checkpoints"],
                f"{e['overhead_pct']:+.1f}",
                {True: "yes", False: "NO", None: "skipped"}[e["validated"]],
            ]
        )
    title = (
        f"chaos campaign: scale {report['scale']}, {report['nodes']} nodes, "
        f"{report['num_ranks']} ranks, seed {report['seed']}"
    )
    return format_table(headers, rows, title=title)


def _build_serve_parser() -> argparse.ArgumentParser:
    from repro.faults.servechaos import available_serve_scenarios

    parser = argparse.ArgumentParser(
        prog="repro-chaos serve",
        description=(
            "Serving-layer chaos campaign: deterministic session, "
            "dispatcher and cache faults against a resilience-enabled "
            "batch scheduler, verified by SLO burn-rate detection and "
            "recovery"
        ),
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="serve scenarios to run (default: the full catalogue: "
        f"{', '.join(available_serve_scenarios())}); 'list' prints them",
    )
    parser.add_argument("--scale", type=int, default=10)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--ppn", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--graph-seed", type=int, default=2)
    parser.add_argument(
        "--json", metavar="PATH",
        help=f"write the {SCHEMA} (mode=serve) report as JSON to PATH",
    )
    parser.add_argument(
        "--slo-out", metavar="PATH",
        help="write the per-scenario final repro.slo/v1 reports to PATH",
    )
    return parser


def _serve_report_table(report: dict) -> str:
    headers = [
        "scenario", "outcome", "queries", "rejected", "restarts",
        "hedges", "retries", "burn", "after",
    ]
    rows = []
    for e in report["scenarios"]:
        if e["outcome"] == "aborted":
            rows.append(
                [e["name"], "aborted", "-", "-", "-", "-", "-", "-",
                 e["error"]["type"]]
            )
            continue
        counts = (
            (e.get("scheduler") or {}).get("resilience") or {}
        ).get("counts", {})
        queries = e.get("queries", {})
        rows.append(
            [
                e["name"],
                e["outcome"],
                sum(queries.values()),
                queries.get("rejected", 0) + queries.get("deadline", 0),
                counts.get("restarts", 0),
                counts.get("hedges", 0),
                counts.get("retries", 0),
                e["slo_during"]["verdict"],
                e["slo_after"]["verdict"],
            ]
        )
    title = (
        f"serve-chaos campaign: scale {report['scale']}, "
        f"{report['nodes']} nodes, seed {report['seed']}"
    )
    return format_table(headers, rows, title=title)


def _serve_main(argv: list[str]) -> int:
    from repro.faults.servechaos import (
        available_serve_scenarios,
        run_serve_campaign,
    )

    args = _build_serve_parser().parse_args(argv)
    if args.scenarios and args.scenarios[0] == "list":
        for name in available_serve_scenarios():
            print(name)
        return 0
    scenarios = list(args.scenarios) or list(available_serve_scenarios())
    unknown = [s for s in scenarios if s not in available_serve_scenarios()]
    if unknown:
        print(
            f"unknown serve scenario(s) {', '.join(unknown)}; available: "
            f"{', '.join(available_serve_scenarios())}",
            file=sys.stderr,
        )
        return 2
    report = run_serve_campaign(
        scenarios,
        scale=args.scale,
        nodes=args.nodes,
        ppn=args.ppn,
        seed=args.seed,
        graph_seed=args.graph_seed,
    )
    print(_serve_report_table(report))
    for e in report["scenarios"]:
        if e["outcome"] == "aborted":
            print(f"  {e['name']}: {json.dumps(e['error'], sort_keys=True)}")
        elif e["outcome"] == "failed":
            failed = [k for k, ok in e.get("checks", {}).items() if not ok]
            print(f"  {e['name']}: failed checks: {', '.join(failed)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("serve-chaos report written to %s", args.json)
    if args.slo_out:
        slo_reports = {
            e["name"]: e["slo_after"]
            for e in report["scenarios"]
            if "slo_after" in e
        }
        with open(args.slo_out, "w", encoding="utf-8") as fh:
            json.dump(slo_reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("per-scenario SLO reports written to %s", args.slo_out)
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    if args.scenarios and args.scenarios[0] == "list":
        for name in available_scenarios():
            print(name)
        return 0
    if args.kernel:
        import os

        os.environ["REPRO_KERNEL"] = args.kernel
    if args.codec:
        import os

        os.environ["REPRO_CODEC"] = args.codec
    scenarios = list(args.scenarios) or list(available_scenarios())
    unknown = [s for s in scenarios if s not in available_scenarios()]
    if unknown:
        print(
            f"unknown scenario(s) {', '.join(unknown)}; available: "
            f"{', '.join(available_scenarios())}",
            file=sys.stderr,
        )
        return 2

    registry = None
    if args.metrics_out:
        from repro.obs.metrics import default_registry

        registry = default_registry()

    try:
        report = run_campaign(
            scenarios,
            scale=args.scale,
            nodes=args.nodes,
            ppn=args.ppn,
            seed=args.seed,
            graph_seed=args.graph_seed,
            checkpoint_every=args.checkpoint_every,
            validate=not args.no_validate,
            metrics=registry,
        )
    except ReproError as exc:
        # The baseline itself failed — nothing to compare against.
        log.error(
            "campaign setup failed: %s",
            json.dumps(exc.to_dict(), sort_keys=True),
        )
        return 1

    print(_report_table(report))
    for e in report["scenarios"]:
        if e["outcome"] == "aborted":
            print(
                f"  {e['name']}: {json.dumps(e['error'], sort_keys=True)}"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("report written to %s", args.json)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.to_json())
        log.info("metrics written to %s", args.metrics_out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
