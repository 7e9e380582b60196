"""The six workloads: set-up, the timed region, and the correctness gate.

Every workload builds its inputs from ``--seed`` (graph, roots, arrival
schedule) and hands the program under test nothing else.  The timed
regions call only public entry points of ``src/repro``; correctness is
checked after them.  See README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro import BFSConfig, BFSEngine, CommConfig, paper_cluster, rmat_graph
from repro.core.kernels import get_backend, resolve_backend
from repro.core.prepared import PreparedGraph
from repro.core.validate import validate_parent_tree
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, ExperimentSettings, run_experiment
from repro.mpi.codecs import CANDIDATE_CODECS, get_codec, resolve_codec
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import BFSService

NPROC = os.cpu_count() or 1
#: serve-* needs the event loop and the scheduler's one worker whatever nproc is.
MAX_THREADS = max(NPROC, 2)

#: Open-loop validity limits (README "Load-generator honesty").  Both are
#: judged on the typical round, not the worst: the whole guest stalls for
#: 50-200 ms about once in ten runs, which makes 1-5 % of one round's queries
#: late and says nothing about the generator or the queue.
MAX_LATE_MS_P95 = 10.0
MAX_BACKLOG_GROWTH = 2.0

#: Every root is traversed twice so that parent arrays can be compared
#: across passes; the rest of the time budget goes into more distinct roots,
#: which is what steadies a median over roots (64 roots: 5 % spread between
#: seeds, 256 roots: 2.5 %).
G500_PASSES = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), stream])


#: The graph is each workload's fixed dataset (as in Graph500: one graph,
#: random roots).  Graphs of one scale differ by +-8 % in BFS host time and
#: simulated TEPS (mean depth 6.0-6.9 levels over ten generator seeds), which
#: would hide a 10 % regression, so --seed draws roots and arrivals only.
GRAPH_SEED = 1


#: Timed operations are cut into consecutive blocks (eight for a loop of
#: traversals, one per round in serve-*) and a metric is the median of its
#: per-block values: this VM slows by 15-30 % for seconds at a time, and a
#: plain percentile over the run moves with how much of the run such a
#: period covered.
BLOCKS = 8


#: Units of the native names a run prints beside the declared metrics.
EXTRA_UNITS = {
    "host_mteps": "MTEPS",
    "figs_wall_s": "s",
    "paper_ratio_err_mean": "ratio",
    "seq_qps": "q/s",
    "burst_qps": "q/s",
    "open_qps": "q/s",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def block_percentile(blocks, q: float) -> float:
    """Median over the blocks of each block's ``q``-th percentile."""
    return statistics.median(percentile(b, q) for b in blocks)


@dataclass
class Outcome:
    """What one timed region produced, before it becomes metrics."""

    op_ms: list  # per block: host latency of each operation
    rates: list  # per block: operations per second
    sim_gteps: float
    sim_n: int = 0  # values under the harmonic mean
    attempted: int = 0
    failed: int = 0
    invalid: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)  # native names, README glossary
    notes: dict = field(default_factory=dict)  # phase counts etc. for the result file
    live: dict = field(default_factory=dict)  # objects check() and layers.py need


def _mismatch(outcome: Outcome, what: str, requested, resolved) -> None:
    """A different program than requested was measured: every op fails."""
    if requested != resolved:
        outcome.failed = outcome.attempted
        outcome.notes["mismatch"] = f"{what}: requested {requested}, resolved {resolved}"


# ---------------------------------------------------------------------------
# g500-*: BFSEngine.run over Graph500 roots
# ---------------------------------------------------------------------------


@dataclass
class G500State:
    graph: object
    cluster: object
    config: BFSConfig
    prepared: PreparedGraph
    engine: BFSEngine
    reached: np.ndarray  # vertices of the giant component
    seed: int


def giant_component(warm) -> np.ndarray:
    """Vertices the warm-up traversal (from the highest-degree vertex) reached.

    Roots are drawn from these only: a Graph500 root (degree >= 1) may sit
    in a two-vertex component, its TEPS is ~0 and alone collapses a harmonic
    mean, so which seeds hit one would decide the metric.
    """
    return np.flatnonzero(warm.parent >= 0)


def _codec_name(engine: BFSEngine) -> str:
    return "raw" if engine.codec is None else engine.codec.name


@dataclass(frozen=True)
class G500Spec:
    scale: int
    nodes: int
    kernel: str
    codec: str
    roots: int  # distinct roots at --seconds 10, each traversed G500_PASSES times
    probes: bool = False  # traced run: also measure hostprof/checkpoint overhead

    root_span = "engine.run"

    def trace_targets(self):
        names = CANDIDATE_CODECS if self.codec == "auto" else (self.codec,)
        codecs = [get_codec(n) for n in names]
        return type(get_backend(self.kernel)), tuple(
            type(c) for c in codecs if not c.is_identity
        )

    def setup(self, seed: int) -> G500State:
        graph = rmat_graph(self.scale, seed=GRAPH_SEED)
        cluster = paper_cluster(nodes=self.nodes)
        config = replace(
            BFSConfig.original_ppn8(),
            kernel=self.kernel,
            comm=CommConfig(codec=self.codec),
        )
        prepared = PreparedGraph.prepare(graph, cluster, config)
        engine = BFSEngine(graph, cluster, config, prepared=prepared)
        warm = engine.run(int(np.argmax(graph.degrees())))
        return G500State(
            graph, cluster, config, prepared, engine, giant_component(warm), seed
        )

    def resolved(self, state: G500State) -> tuple[str, str]:
        return state.engine.kernel.name, _codec_name(state.engine)

    def prepared(self, state: G500State) -> PreparedGraph:
        return state.prepared

    def measure(self, state: G500State, factor: float, rec=None) -> Outcome:
        count = max(8, round(self.roots * factor))
        roots = _rng(state.seed, 1).choice(state.reached, size=count, replace=False)
        engine = state.engine
        lat_ns = np.empty(G500_PASSES * count, dtype=np.int64)
        sums = np.empty((G500_PASSES, count), dtype=np.int64)
        teps = []
        edges = 0
        k = 0
        for p in range(G500_PASSES):
            for i, root in enumerate(roots):
                if rec is not None:
                    rec.request = k
                t0 = time.perf_counter_ns()
                result = engine.run(int(root))
                lat_ns[k] = time.perf_counter_ns() - t0
                k += 1
                edges += result.traversed_edges
                sums[p, i] = zlib.crc32(result.parent)
                if p == 0:
                    teps.append(result.teps)
        blocks = np.array_split(lat_ns, BLOCKS if lat_ns.size >= 24 * BLOCKS else 1)
        out = Outcome(
            op_ms=[b / 1e6 for b in blocks],
            rates=[b.size / (b.sum() / 1e9) for b in blocks],
            sim_gteps=statistics.harmonic_mean(teps) / 1e9,
            sim_n=count,
            attempted=k,
            # Parent arrays must be identical across passes.
            failed=int((sums != sums[0]).sum()),
        )
        out.extras["host_mteps"] = edges / (float(lat_ns.sum()) / 1e9) / 1e6
        out.notes["roots"] = count
        out.live["roots"] = roots
        return out

    def check(self, state: G500State, out: Outcome) -> None:
        """validate_parent_tree on 8 roots, 2 of them against ``reference``."""
        engine, graph = state.engine, state.graph
        oracle = BFSEngine(
            graph, state.cluster, replace(state.config, kernel="reference"),
            prepared=state.prepared,
        )
        for i, root in enumerate(out.live["roots"][:8]):
            root = int(root)
            result = engine.run(root)
            out.attempted += 1
            try:
                validate_parent_tree(graph, root, result.parent)
            except ReproError:
                out.failed += 1
            if i < 2:
                out.attempted += 1
                if not np.array_equal(result.parent, oracle.run(root).parent):
                    out.failed += 1
        kernel, codec = self.resolved(state)
        _mismatch(out, "kernel", self.kernel, kernel)
        _mismatch(out, "codec", self.codec, codec)


# ---------------------------------------------------------------------------
# paper-figs: every experiment of the paper's evaluation, once
# ---------------------------------------------------------------------------

#: (experiment, claim) -> the eight headline ratios of paper_ratio_err_mean.
HEADLINE_RATIOS = (
    ("fig09", "overall speedup"),
    ("fig09", "NUMA mapping alone (ppn=8 vs ppn=1)"),
    ("fig10", "bind-to-socket vs ppn=1.interleave"),
    ("fig10", "bind-to-socket vs ppn=8.noflag"),
    ("fig12", "ppn=8 comm vs ppn=1 comm at 8 nodes"),
    ("fig13", "total communication reduction at 8 nodes"),
    ("fig16", "gain of best granularity over 64"),
    ("text_hybrid", "hybrid vs pure top-down"),
)

#: Qualitative claims that hold at the recorded baseline and must keep holding.
HOLDING_CLAIMS = (
    ("fig06", "intra-node dominates inter-node (64 MB (scale 29))"),
    ("fig06", "intra-node dominates inter-node (512 MB (scale 32))"),
    ("fig06", "perfect overlap cannot match sharing (512 MB)"),
    ("fig10", "interleave beats ppn=1.noflag"),
    ("fig10", "bind-to-socket is best"),
    ("fig12", "proportion grows with node count"),
    ("fig13", "each optimization reduces comm time (8 nodes)"),
    ("fig15", "optimized TEPS rises through 8 nodes"),
    ("fig16", "very coarse granularity hurts"),
    ("fig16", "interior maximum"),
    ("ext_modern", "NUMA + comm levers shrink on modern fabric"),
    ("ext_modern", "the hybrid algorithm's advantage is timeless"),
)


def _ratio(text: str) -> float:
    """'2.44x' -> 2.44; '+10.2%' -> 1.102."""
    text = text.strip()
    if text.endswith("%"):
        return 1.0 + float(text[:-1]) / 100.0
    return float(text.rstrip("x"))


@dataclass(frozen=True)
class FigsSpec:
    ids: tuple[str, ...]
    quick: bool = False

    root_span = "experiments.run"

    def trace_targets(self):
        return type(resolve_backend(None)), ()

    def setup(self, seed: int):
        """Nothing to build: the experiments generate their own graphs.  The
        default kernel/codec resolution they rely on is what gets checked."""
        return resolve_backend(None), resolve_codec(None)

    def resolved(self, state) -> tuple[str, str]:
        return state[0].name, state[1].name

    def prepared(self, state) -> None:
        return None

    def measure(self, state, factor: float, rec=None) -> Outcome:
        # One pass whatever --seconds says, and the paper's own seeds whatever
        # --seed says (README "Steadiness").
        settings = ExperimentSettings().quick() if self.quick else ExperimentSettings()
        results = {}
        lat = []
        t_start = time.perf_counter()
        for k, eid in enumerate(self.ids):
            if rec is not None:
                rec.request = k
            t0 = time.perf_counter()
            results[eid] = run_experiment(eid, settings)
            lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_start
        out = Outcome(
            op_ms=[np.asarray(lat) * 1e3],
            rates=[len(self.ids) / wall],
            sim_gteps=0.0,
            attempted=len(self.ids),
        )
        out.extras["figs_wall_s"] = wall
        out.notes["claims"] = {
            eid: {name: list(pm) for name, pm in r.claims.items()}
            for eid, r in results.items()
        }
        out.live["results"] = results
        return out

    def check(self, state, out: Outcome) -> None:
        results = out.live["results"]
        for eid, name in HOLDING_CLAIMS:
            if eid not in results:
                continue
            out.attempted += 1
            measured = results[eid].claims.get(name, ("", "missing"))[1]
            if "holds" not in measured:
                out.failed += 1
                out.notes.setdefault("violated", []).append(f"{eid}: {name}: {measured}")
        errs = []
        for eid, name in HEADLINE_RATIOS:
            if eid in results:
                paper, measured = results[eid].claims[name]
                errs.append(abs(_ratio(measured) / _ratio(paper) - 1.0))
        if errs:
            out.extras["paper_ratio_err_mean"] = sum(errs) / len(errs)
        # Simulated clock of the reproduction: harmonic mean over the Fig. 16
        # granularities of the reproduced GTEPS.
        gteps = [float(row[1]) for row in results["fig16"].rows]
        out.sim_gteps, out.sim_n = statistics.harmonic_mean(gteps), len(gteps)
        kernel, codec = self.resolved(state)
        _mismatch(out, "kernel", "activeset", kernel)
        _mismatch(out, "codec", "raw", codec)


# ---------------------------------------------------------------------------
# serve-*: GraphSession behind a BatchScheduler
# ---------------------------------------------------------------------------

SERVE_KERNEL = "cnative"
MAX_BATCH = 64
MAX_WAIT_MS = 2.0
#: Answers per phase compared with a sequential BFSEngine.run.
SAMPLED_ANSWERS = 32
#: Load is offered in this many rounds of (burst, open loop) at --seconds 10:
#: each round's open loop runs at a set fraction of the rate its own burst
#: just reached, and every metric is the median over the rounds.
ROUNDS = 4


@dataclass
class ServeState:
    graph: object
    cluster: object
    config: BFSConfig
    session: object
    reached: np.ndarray  # vertices of the giant component
    seed: int


@dataclass
class Phase:
    """One load phase: per-query latency from the due time, and honesty.

    A merged phase (the bursts, or the open-loop segments, of all rounds)
    keeps the size and the window of each part.
    """

    name: str
    sizes: list  # queries sent in each part
    lat_ms: np.ndarray
    late_ms: np.ndarray
    ok: np.ndarray  # bool per query
    teps: np.ndarray  # simulated TEPS of each answer (0 where it failed)
    wall_s: float
    windows_ns: list  # (start, end) of each part
    threads: int
    stats: dict = field(default_factory=dict)  # scheduler counters of the phase
    kept: dict = field(default_factory=dict)  # query index -> result
    first_error: str | None = None

    @property
    def sent(self) -> int:
        return sum(self.sizes)

    @property
    def succeeded(self) -> int:
        return int(self.ok.sum())

    @property
    def qps(self) -> float:
        return self.succeeded / self.wall_s

    def _parts(self, values: np.ndarray) -> list:
        return np.split(values, np.cumsum(self.sizes)[:-1])

    @property
    def growth(self) -> float:
        """Mean latency of a part's last quarter over its first: ~1 on a
        stable queue, ~7 on one that grows through the part.  Each is the
        median over the parts, which one stalled quarter does not move; 1.0
        when a quarter has under 32 queries, too few to tell a backlog from
        a few slow batches."""
        firsts, lasts = [], []
        for lat in self._parts(self.lat_ms):
            q = lat.size // 4
            if q >= 32:
                firsts.append(float(lat[:q].mean()))
                lasts.append(float(lat[-q:].mean()))
        return statistics.median(lasts) / statistics.median(firsts) if firsts else 1.0

    @property
    def late_ms_p95(self) -> float:
        """The generator's lateness (95th percentile) in the typical part:
        the lower median, so that half the parts must be late to matter."""
        return statistics.median_low(percentile(p, 95) for p in self._parts(self.late_ms))

    def summary(self) -> dict:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.sent - self.succeeded,
            "wall_s": self.wall_s,
            "generator_late_ms_p95": self.late_ms_p95,
            "generator_late_ms_p99": percentile(self.late_ms, 99),
            "backlog_growth": self.growth,
            "threads": self.threads,
            "first_error": self.first_error,
            **self.stats,
        }


def _phase_stats(stats: dict) -> dict:
    out = {k: stats[k] for k in ("queries", "batches", "batched_queries", "coalesced")}
    cache = stats["result_cache"] or {"hits": 0, "misses": 0}
    out["cache_hits"], out["cache_misses"] = cache["hits"], cache["misses"]
    return out


async def drive(
    scheduler, name: str, roots, qps: float, keep=(), deadline_ms=None, rec=None
) -> Phase:
    """Start ``scheduler``, offer ``roots`` on a fixed schedule (``qps=inf``:
    all at once), stop it.

    Query ``i`` is due at ``t0 + i/qps`` whatever the scheduler is doing,
    and its latency runs from that due time, so a stall is charged to every
    query it delays.  ``late_ms`` is how long after its due time the
    generator actually issued it.
    """
    n = len(roots)
    lat = np.zeros(n)
    late = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    teps = np.zeros(n)
    kept: dict = {}
    errors: list[str] = []
    loop = asyncio.get_running_loop()

    async def one(i: int, source: int, due: float) -> None:
        try:
            if rec is not None:
                rec.request = i
            result = await scheduler.submit(source, deadline_ms=deadline_ms)
        except Exception as exc:  # rejected, expired or errored: a failure
            if not errors:
                errors.append(repr(exc))
            result = None
        lat[i] = (time.perf_counter() - due) * 1e3
        if result is not None:
            ok[i] = int(result.root) == source
            teps[i] = result.teps
            if i in keep:
                kept[i] = result

    gap = 0.0 if qps == float("inf") else 1.0 / qps
    before = _phase_stats(scheduler.stats())
    async with scheduler:
        start_ns = time.perf_counter_ns()
        t0 = time.perf_counter()
        tasks = []
        for i, source in enumerate(roots):
            due = t0 + i * gap
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = (time.perf_counter() - due) * 1e3
            tasks.append(loop.create_task(one(i, int(source), due)))
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - t0
        end_ns = time.perf_counter_ns()
        threads = threading.active_count()
    del tasks
    gc.collect()  # answers sit in task/future cycles; free them before the next phase
    after = _phase_stats(scheduler.stats())
    return Phase(
        name, [n], lat, late, ok, teps, wall, [(start_ns, end_ns)], threads,
        {k: after[k] - before[k] for k in after}, kept,
        errors[0] if errors else None,
    )


def merge(parts: list) -> Phase:
    """The same phase of every round as one, queries numbered across rounds."""
    cat = np.concatenate
    kept, offset = {}, 0
    for p in parts:
        kept.update({offset + i: r for i, r in p.kept.items()})
        offset += p.sent
    stats = {k: sum(p.stats[k] for p in parts) for k in parts[0].stats}
    errors = [p.first_error for p in parts if p.first_error]
    return Phase(
        parts[0].name, [n for p in parts for n in p.sizes],
        cat([p.lat_ms for p in parts]), cat([p.late_ms for p in parts]),
        cat([p.ok for p in parts]), cat([p.teps for p in parts]),
        sum(p.wall_s for p in parts),
        [w for p in parts for w in p.windows_ns],
        max(p.threads for p in parts), stats, kept,
        errors[0] if errors else None,
    )


def sequential(session, roots, keep=(), rec=None) -> Phase:
    """Phase A: one client, each query waits for the previous reply."""
    n = len(roots)
    lat = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    teps = np.zeros(n)
    kept = {}
    start_ns = time.perf_counter_ns()
    t_start = time.perf_counter()
    for i, source in enumerate(roots):
        if rec is not None:
            rec.request = i
        t0 = time.perf_counter()
        result = session.run(int(source))
        lat[i] = (time.perf_counter() - t0) * 1e3
        ok[i] = int(result.root) == int(source)
        teps[i] = result.teps
        if i in keep:
            kept[i] = result
    wall = time.perf_counter() - t_start
    return Phase(
        "A", [n], lat, np.zeros(n), ok, teps, wall,
        [(start_ns, time.perf_counter_ns())], threading.active_count(), {}, kept,
    )


def _sample(n: int, rng) -> set:
    return set(rng.choice(n, size=min(SAMPLED_ANSWERS, n), replace=False).tolist())


def _shift(keep: set, offset: int, size: int) -> set:
    """The sampled indices that fall into one part, relative to its start."""
    return {i - offset for i in keep if offset <= i < offset + size}


@dataclass(frozen=True)
class ServeSpec:
    scale: int
    cache: int | None  # result_cache size; None = every query is a miss
    pool: int | None  # Zipf root pool; None = distinct roots per phase
    seq: int  # phase A: closed loop, one client
    burst: int  # phase B: offered all at once, 1/ROUNDS of it per round
    open_n: int  # phase C: open loop, 1/ROUNDS of it per round ...
    open_frac: float  # ... at this fraction of the rate the round's burst reached
    sweep_n: int = 600  # traced run: queries per rate of the max-rate sweep
    probes: bool = False  # traced run: also tracer/resilience overhead and the sweep

    root_span = "session.run_batch"

    def trace_targets(self):
        return type(get_backend(SERVE_KERNEL)), ()

    def setup(self, seed: int) -> ServeState:
        graph = rmat_graph(self.scale, seed=GRAPH_SEED)
        cluster = paper_cluster(nodes=1)
        config = replace(BFSConfig.original_ppn8(), kernel=SERVE_KERNEL)
        session = BFSService(cluster=cluster).session(graph, cluster, config)
        warm = session.run(int(np.argmax(graph.degrees())))
        return ServeState(graph, cluster, config, session, giant_component(warm), seed)

    def resolved(self, state: ServeState) -> tuple[str, str]:
        engine = state.session.engine.engine
        return engine.kernel.name, _codec_name(engine)

    def prepared(self, state: ServeState) -> PreparedGraph:
        return state.session.prepared

    def roots(self, state: ServeState, stream: int, sizes) -> list:
        """One root array per phase: distinct within the phase (no pool) or
        drawn Zipf(1.1) from a pool four times the result cache."""
        rng = _rng(state.seed, stream)
        if self.pool is None:
            perm = rng.permutation(state.reached)
            if sum(sizes) > perm.size:  # smoke graphs: distinct within a phase only
                return [rng.permutation(state.reached)[:n] for n in sizes]
            cuts = np.cumsum([0, *sizes])
            return [perm[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        pool = rng.choice(
            state.reached, size=min(self.pool, state.reached.size), replace=False
        )
        weights = 1.0 / np.arange(1, pool.size + 1) ** 1.1
        weights /= weights.sum()
        return [pool[rng.choice(pool.size, size=n, p=weights)] for n in sizes]

    def scheduler(self, state: ServeState, **kwargs) -> BatchScheduler:
        return BatchScheduler(
            state.session,
            max_batch=MAX_BATCH,
            max_wait_ms=MAX_WAIT_MS,
            result_cache=self.cache,
            **kwargs,
        )

    def measure(self, state: ServeState, factor: float, rec=None) -> Outcome:
        # --seconds scales the number of rounds, not their size: a smaller
        # burst reaches a different saturation rate and paces its open loop
        # differently.
        rounds = max(1, round(ROUNDS * factor))
        sizes = [
            max(1, round(self.seq * factor)) if self.seq else 0,
            self.burst // ROUNDS * rounds,
            self.open_n // ROUNDS * rounds,
        ]
        roots_a, roots_b, roots_c = self.roots(state, 2, sizes)
        pick = _rng(state.seed, 3)
        phases: dict[str, Phase] = {}
        if sizes[0]:
            phases["A"] = sequential(
                state.session, roots_a, _sample(sizes[0], pick), rec
            )

        async def load():
            # Batches are serialized, so one worker is all the scheduler can
            # use; the default pool would race a second thread into existence.
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(max_workers=1)
            )
            keep_b, keep_c = _sample(sizes[1], pick), _sample(sizes[2], pick)
            # One scheduler serves every open-loop segment, so its result
            # cache stays warm across rounds; each burst gets a fresh one and
            # meets an empty cache.
            paced = self.scheduler(state)
            bursts, opens = [], []
            off_b = off_c = 0
            for part_b, part_c in zip(
                np.array_split(roots_b, rounds), np.array_split(roots_c, rounds)
            ):
                bursts.append(await drive(
                    self.scheduler(state), "B", part_b, float("inf"),
                    _shift(keep_b, off_b, part_b.size), rec=rec,
                ))
                # The schedule is fixed before the segment starts, at a set
                # fraction of the saturation rate just measured: at a fixed
                # q/s a 30 % slower machine moved p50 by 90 % (load rises as
                # capacity falls); at a fixed utilisation latency moves as the
                # machine does.
                opens.append(await drive(
                    paced, "C", part_c, self.open_frac * bursts[-1].qps,
                    _shift(keep_c, off_c, part_c.size), rec=rec,
                ))
                off_b += part_b.size
                off_c += part_c.size
            return bursts, opens

        bursts, opens = asyncio.run(load())
        phases["B"], phases["C"] = merge(bursts), merge(opens)
        out = Outcome(
            op_ms=[p.lat_ms for p in opens], rates=[p.qps for p in bursts], sim_gteps=0.0
        )
        out.extras["burst_qps"] = statistics.median(out.rates)
        out.extras["open_qps"] = self.open_frac * out.extras["burst_qps"]
        if "A" in phases:
            out.extras["seq_qps"] = phases["A"].qps
        out.live["traced"] = rec is not None
        out.notes["phases"] = {k: p.summary() for k, p in phases.items()}
        out.live["phases"] = phases
        out.live["roots"] = {"A": roots_a, "B": roots_b, "C": roots_c}
        return out

    def check(self, state: ServeState, out: Outcome) -> None:
        phases = out.live["phases"]
        roots = out.live["roots"]
        engine = BFSEngine(
            state.graph, state.cluster, state.config, prepared=state.session.prepared
        )
        for name, phase in phases.items():
            out.attempted += phase.sent
            out.failed += phase.sent - phase.succeeded
            for i, result in phase.kept.items():
                out.attempted += 1
                expect = engine.run(int(roots[name][i]))
                if not np.array_equal(result.parent, expect.parent):
                    out.failed += 1
            if phase.threads > MAX_THREADS:
                out.invalid.append(
                    f"phase {name}: {phase.threads} threads > {MAX_THREADS} (nproc {NPROC})"
                )
        # Only a paced phase has a schedule to be late for; a burst's issue
        # time is inside its latencies, which all run from t=0.  A traced run
        # reports its lateness but is not judged by it: the span wrappers hold
        # the interpreter lock longer, and no end-to-end number comes from it.
        late = phases["C"].late_ms_p95
        if late > MAX_LATE_MS_P95 and not out.live["traced"]:
            out.invalid.append(f"phase C: generator late p95 {late:.2f} ms")
        growth = phases["C"].growth
        if growth > MAX_BACKLOG_GROWTH:
            out.invalid.append(f"phase C backlog growing: last/first quarter {growth:.2f}")
        # Simulated clock: harmonic mean of simulated TEPS over the distinct
        # roots answered under load (one value per root, however often asked).
        per_root = {}
        for name in ("B", "C"):
            ok = phases[name].ok
            per_root.update(zip(roots[name][ok].tolist(), phases[name].teps[ok].tolist()))
        out.sim_gteps = statistics.harmonic_mean(per_root.values()) / 1e9
        out.sim_n = len(per_root)
        kernel, codec = self.resolved(state)
        _mismatch(out, "kernel", SERVE_KERNEL, kernel)
        _mismatch(out, "codec", "raw", codec)


FULL = {
    "g500-s18-n1-activeset": G500Spec(18, 1, "activeset", "raw", 128),
    "g500-s16-n4-raw": G500Spec(16, 4, "cnative", "raw", 256, probes=True),
    "g500-s16-n4-auto": G500Spec(16, 4, "cnative", "auto", 192),
    "paper-figs": FigsSpec(tuple(EXPERIMENTS)),
    "serve-cold": ServeSpec(14, None, None, 128, 1280, 720, 0.4, probes=True),
    "serve-hot": ServeSpec(14, 256, 1024, 0, 2048, 1600, 0.5),
}

#: --smoke sizing for test_selfcheck.py: same code paths, seconds not minutes.
SMOKE = {
    "g500-s18-n1-activeset": G500Spec(12, 1, "activeset", "raw", 32),
    "g500-s16-n4-raw": G500Spec(12, 4, "cnative", "raw", 32, probes=True),
    "g500-s16-n4-auto": G500Spec(12, 4, "cnative", "auto", 32),
    "paper-figs": FigsSpec(
        ("table1", "fig04", "fig06", "fig10", "fig11", "fig16",
         "text_hybrid", "ext_modern"),
        quick=True,
    ),
    "serve-cold": ServeSpec(12, None, None, 16, 96, 96, 0.4, sweep_n=96, probes=True),
    "serve-hot": ServeSpec(12, 256, 1024, 0, 256, 256, 0.5, sweep_n=96),
}
