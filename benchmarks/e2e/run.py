#!/usr/bin/env python3
"""End-to-end benchmark of the repro BFS stack (see README.md).

One run of one workload (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload g500-s16-n4-raw --seed 0 \
        --seconds 10 --trace 0

prints a table and, as its last line, one JSON object with the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or the
``per_layer`` ones (``--trace 1``).  ``--all`` runs every workload in a
fresh process each, ``--all --traced`` adds the traced runs, and
``--check-repeat`` runs everything twice and compares.
"""

import time

_T_START = time.perf_counter()  # set-up is timed from before the heavy imports

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: Set-up is repeated until this many seconds or three repetitions.
SETUP_BUDGET_S = 4.0
#: Traced runs do a quarter of the work: spans, not steadiness, are the point.
TRACE_FACTOR = 0.25
#: Metrics that must repeat bit for bit, and the workloads where they do.
EXACT = {
    "sim_gteps_hmean": None,  # every workload
    "experiments.paper_ratio_err_mean": ("paper-figs",),
    "kernels.examined_edges_per_bfs": ("g500-", "paper-figs"),
    "codecs.wire_over_raw": ("g500-", "paper-figs"),
    "engine.levels_per_bfs": ("g500-", "paper-figs"),
}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


def _single_malloc_arena() -> None:
    """glibc gives the scheduler's worker thread its own malloc arena, and
    which arena a batch's arrays land in moved peak RSS by +-10 % run to
    run; with one arena it repeats within 2 %.  A no-op off glibc."""
    import ctypes

    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError):
        pass


def _provenance(args, kernel: str, codec: str) -> dict:
    from repro.core.kernels.cnative import build
    from repro.obs.ledger import environment_provenance, git_commit

    compiler = build.find_compiler()
    return {
        "git_commit": git_commit(ROOT),  # None in the driver's checkout: not a repository
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "threads": threading.active_count(),
        **environment_provenance(),  # python, numpy, platform, hostname, cpu_count
        "compiler": " ".join(compiler) if compiler else None,
        "resolved_kernel": kernel,
        "resolved_codec": codec,
    }


def print_metrics(declared, result: dict, prefix: str = "") -> None:
    """One row per declared metric (name, value, unit, direction, bound, n),
    then the native names and ``fail_frac``, from a result file's dict."""
    for m in declared:
        bound = f"{m['bound']:.2f}" if "bound" in m else "-"
        value = result["metrics"][m["name"]]["value"]
        print(f"{prefix}{m['name']:40s} {value:14.6g} {m['unit']:8s} "
              f"{m['better']:7s} {bound:>6s} {result['samples'].get(m['name'], ''):>6}")
    for name, extra in result["extras"].items():
        print(f"{prefix}{name:40s} {extra['value']:14.6g} {extra['unit']:8s} "
              f"(native name, see README; trace={result['trace']})")
    print(f"{prefix}{'fail_frac':40s} {result['fail_frac']:14.6g} ratio    "
          f"({result['failed']} of {result['attempted']} operations; trace={result['trace']})")


def measure_untraced(spec, args, factor: float, once_s: float):
    """Repeated set-up, the timed region, the gate: the end-to-end metrics."""
    import workloads as W

    reps, state = [], None
    while len(reps) < 3 and sum(reps) < SETUP_BUDGET_S:
        state = None  # free the previous graph before building the next
        t0 = time.perf_counter()
        state = spec.setup(args.seed)
        reps.append(time.perf_counter() - t0)
    out = spec.measure(state, factor)
    spec.check(state, out)
    metrics = {
        "setup_s": once_s + statistics.median(reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms_p50": W.block_percentile(out.op_ms, 50),
        "op_ms_p95": W.block_percentile(out.op_ms, 95),
        "ops_per_s": statistics.median(out.rates),
        "sim_gteps_hmean": out.sim_gteps,
    }
    ops = sum(len(b) for b in out.op_ms)
    samples = {"setup_s": len(reps), "peak_rss_mb": 1, "op_ms_p50": ops, "op_ms_p95": ops,
               "ops_per_s": len(out.rates), "sim_gteps_hmean": out.sim_n}
    return state, out, metrics, samples, {"setup": {"once_s": once_s, "repeated_s": reps}}


def measure_traced(spec, args, factor: float, targets, layer_names):
    """Set-up and a quarter-size timed region under spans: the per-layer metrics."""
    import layers
    import spans
    import workloads as W

    factor *= TRACE_FACTOR
    rec = spans.Recorder()
    ins = spans.install(rec, *targets)
    try:
        state = spec.setup(args.seed)
    finally:
        ins.restore()
    # An equal untraced pass first: the tracing overhead is their ratio.
    # paper-figs is one pass by definition and caches its graphs per
    # process, so it has no second pass to compare with.
    base = None if isinstance(spec, W.FigsSpec) else spec.measure(state, factor)
    mark = len(rec.spans)
    ins = spans.install(rec, *targets)
    try:
        out = spec.measure(state, factor, rec)
    finally:
        ins.restore()
    spec.check(state, out)

    metrics = dict.fromkeys(layer_names, 0.0)
    metrics.update(layers.span_metrics(rec, spec.root_span, mark))
    metrics.update(layers.family_metrics(spec, rec, out))
    metrics.update(layers.probes(spec, state, factor, out))
    prepared = spec.prepared(state)
    if prepared is not None:
        metrics["prepared.nbytes_mb"] = prepared.nbytes() / 2**20
    traced_p50 = W.block_percentile(out.op_ms, 50)
    if base is not None:
        metrics["obs.bench_trace_overhead_frac"] = (
            traced_p50 / W.block_percentile(base.op_ms, 50) - 1.0
        )
    with open(OUT / f"trace-{args.workload}.json", "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request",
                              "thread", "data"], "spans": rec.spans},
                  fh, separators=(",", ":"))
    return state, out, metrics, {}, {"traced_pass": {"op_ms_p50": traced_p50}}


def run_single(args) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    _single_malloc_arena()
    # The compiled kernels are built into the checkout, not ~/.cache, and
    # the compiler's intermediates with them, not /tmp.
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native")
    os.environ["TMPDIR"] = str(OUT)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads as W

    spec = (W.SMOKE if args.smoke else W.FULL)[args.workload]
    targets = spec.trace_targets()  # loads (first run: builds) the kernel
    once_s = time.perf_counter() - _T_START
    factor = args.seconds / contract["run_seconds"]
    if args.trace:
        declared = contract["per_layer"]
        state, out, metrics, samples, extra = measure_traced(
            spec, args, factor, targets, [m["name"] for m in declared]
        )
    else:
        declared = contract["end_to_end"]
        state, out, metrics, samples, extra = measure_untraced(spec, args, factor, once_s)

    if threading.active_count() > W.MAX_THREADS:
        out.invalid.append(f"{threading.active_count()} threads > {W.MAX_THREADS} (nproc {W.NPROC})")
    kernel, codec = spec.resolved(state)
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics declared but not measured: {missing}")
    result = {
        "workload": args.workload,
        "trace": args.trace,
        **extra,
        "provenance": _provenance(args, kernel, codec),
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_frac": out.failed / out.attempted,
        "invalid": out.invalid,
        "extras": {k: {"value": v, "unit": W.EXTRA_UNITS[k]} for k, v in out.extras.items()},
        "samples": samples,
        "notes": out.notes,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=float)

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"kernel={kernel}  codec={codec}")
    print(f"{'metric':40s} {'value':>14s} {'unit':8s} {'better':7s} {'bound':>6s} {'n':>6s}")
    print_metrics(declared, result)
    for phase, summary in out.notes.get("phases", {}).items():
        print(f"phase {phase}: sent {summary['sent']} succeeded {summary['succeeded']} "
              f"failed {summary['failed']} late_p95 {summary['generator_late_ms_p95']:.3f} "
              f"late_p99 {summary['generator_late_ms_p99']:.3f} ms "
              f"backlog_growth {summary['backlog_growth']:.2f}")
    for reason in out.invalid:
        print(f"INVALID: {reason}")
    correct = out.failed == 0 and not out.invalid
    print(json.dumps({
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": result["metrics"],
    }, default=float))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, each run in a fresh process
# ---------------------------------------------------------------------------


def spawn(workload: str, args, trace: int) -> dict:
    """Run one workload in its own process (peak RSS and caches are
    per process) and return its final JSON line plus the result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a "
                         f"result:\n{proc.stdout}\n{proc.stderr}")
    final = json.loads(lines[-1])
    with open(OUT / f"result-{workload}-trace{trace}.json") as fh:
        final["file"] = json.load(fh)
    final["exit"] = proc.returncode
    return final


def _values(run: dict) -> dict:
    return {k: v["value"] for k, v in run["metrics"].items()}


def run_all(args) -> int:
    contract = load_contract()
    status = 0
    for w in contract["workloads"]:
        name = w["name"]
        prefix = f"{name:24s} "
        run = spawn(name, args, 0)
        print_metrics(contract["end_to_end"], run["file"], prefix)
        status |= run["exit"]
        if args.traced:
            traced = spawn(name, args, 1)
            print_metrics(contract["per_layer"], traced["file"], prefix)
            gap = (traced["file"]["traced_pass"]["op_ms_p50"]
                   / run["metrics"]["op_ms_p50"]["value"] - 1.0)
            print(f"{prefix}{'traced vs untraced op_ms_p50':40s} {gap:+14.3f} "
                  f"(quarter-size traced pass against the full untraced run)")
            status |= traced["exit"]
    return status


def _exact_applies(metric: str, workload: str) -> bool:
    where = EXACT[metric]
    return where is None or any(workload.startswith(p) for p in where)


def check_repeat(args) -> int:
    """Two sets of runs in opposite workload order; counts must be
    bit-equal and timings within their declared bounds."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    sets = []
    for order in (names, names[::-1]):
        sets.append({n: (spawn(n, args, 0), spawn(n, args, 1)) for n in order})
    bad = 0
    print(f"{'workload':24s} {'metric':38s} {'first':>14s} {'second':>14s} "
          f"{'gap':>8s} {'limit':>6s}")
    for name in names:
        for trace, declared in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
            for m in declared:
                a = _values(sets[0][name][trace])[m["name"]]
                b = _values(sets[1][name][trace])[m["name"]]
                if m["name"] in EXACT and _exact_applies(m["name"], name):
                    ok, limit = a == b, "exact"
                elif "bound" in m:
                    ok, limit = abs(b - a) <= m["bound"] * abs(a), f"{m['bound']:.2f}"
                else:
                    continue
                gap = (b - a) / a if a else 0.0
                flag = "" if ok else "  <-- outside"
                bad += not ok
                print(f"{name:24s} {m['name']:38s} {a:14.6g} {b:14.6g} "
                      f"{gap:+8.3f} {limit:>6s}{flag}")
    failed = [n for s in sets for n, runs in s.items() if any(r["exit"] for r in runs)]
    if failed:
        print(f"runs that reported failures or were invalid: {sorted(set(failed))}")
    return 1 if bad or failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run; operation counts scale with it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced")
    ap.add_argument("--traced", action="store_true", help="with --all: add the traced runs")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for test_selfcheck.py")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.check_repeat:
        return check_repeat(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("one of --workload, --all, --check-repeat is required")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
