"""In-memory span recorder and the install()/restore() pair of a traced run.

Spans are recorded from the benchmark's side of each layer boundary: a
traced run temporarily replaces the public functions listed in
``install()`` with timing wrappers, and puts every original back afterwards.
Nothing here is imported by ``src/repro``; an untraced run never loads
a wrapper, so end-to-end numbers carry no instrumentation.

A span is ``[name, start_ns, end_ns, parent, request, thread, data]``.
``parent`` is the index of the enclosing span on the same thread (batches
run on the scheduler's worker thread, so stacks are thread-local) or -1.
Coroutines interleave on the event-loop thread and cannot nest on a stack;
their spans are recorded flat (parent -1) and are not part of any tree.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

NAME, START, END, PARENT, REQUEST, THREAD, DATA = range(7)


class Recorder:
    """Append-only span store; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Traversal index or query id the harness is currently issuing.
        self.request = None

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, nested: bool = True) -> int:
        stack = self._stack() if nested else None
        parent = stack[-1] if stack else -1
        span = [name, 0, 0, parent, self.request, threading.get_ident(), None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        if nested:
            stack.append(sid)
        span[START] = time.perf_counter_ns()
        return sid

    def end(self, sid: int, nested: bool = True) -> None:
        now = time.perf_counter_ns()
        self.spans[sid][END] = now
        if nested:
            self._stack().pop()

    # ---- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the part its child spans cover.

        Children of one parent run on one thread and never overlap, so the
        covered part is the sum of their durations.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def by_name(self, start: int = 0) -> dict[str, dict]:
        """name -> {calls, total_ns, self_ns} over spans[start:]."""
        agg: dict[str, dict] = {}
        for s, self_ns in zip(self.spans[start:], self.self_times()[start:]):
            a = agg.setdefault(s[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0})
            a["calls"] += 1
            a["total_ns"] += s[END] - s[START]
            a["self_ns"] += self_ns
        return agg

    def select(self, name: str, start: int = 0) -> list[list]:
        return [s for s in self.spans[start:] if s[NAME] == name]

    def tree_coverage(self, root_name: str) -> tuple[int, int]:
        """(sum of root durations, sum of self times inside those trees)."""
        selfs = self.self_times()
        root_of: list[int] = []
        total = covered = 0
        for i, s in enumerate(self.spans):
            # Parents are always recorded before their children.
            r = i if s[PARENT] < 0 else root_of[s[PARENT]]
            root_of.append(r)
            if self.spans[r][NAME] == root_name:
                covered += selfs[i]
                if r == i:
                    total += s[END] - s[START]
        return total, covered


# ---------------------------------------------------------------------------
# install / restore
# ---------------------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(span, args, kwargs, result)`` reads
    counts at the same boundary, outside the span's interval."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            sid = rec.begin(name, nested=False)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.end(sid, nested=False)
            if after is not None:
                after(rec.spans[sid], args, kwargs, result)
            return result

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(sid)
        if after is not None:
            after(rec.spans[sid], args, kwargs, result)
        return result

    return wrapper


class Installed:
    """The set of replaced attributes of one traced run."""

    def __init__(self) -> None:
        # (owner, attr, original entry of vars(owner) or _ABSENT)
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def method(self, rec, cls, attr: str, name: str, after=None) -> None:
        """Wrap a method where ``cls`` looks it up (inherited or own)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(_timed(rec, name, raw.__func__, after)))
        else:
            self._set(cls, attr, _timed(rec, name, raw, after))

    def function(self, rec, fn, name: str, after=None) -> None:
        """Wrap a module-level function under every name bound to it.

        ``from x import f`` copies the binding, so the defining module and
        every loaded module that holds ``f`` (the harness's own included)
        is patched.
        """
        wrapped = _timed(rec, name, fn, after)
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def restore(self) -> None:
        """Put every original back, newest first."""
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def wrapped(self) -> list[tuple[object, str, object]]:
        """(owner, attr, original) of every replaced attribute."""
        return list(self._saved)


_ABSENT = object()


def _count_results(results) -> dict:
    """Counts read from returned ``BFSResult``s at the layer boundary."""
    examined = wire = raw = td_bytes = sim_comm = 0.0
    levels = rank_levels = checkpoint_bytes = 0
    for result in results:
        counts = result.counts
        for lc in counts.levels:
            examined += float(lc.examined_edges.sum())
            wire += lc.inq_wire_total_bytes + lc.summary_wire_total_bytes
            raw += lc.inq_raw_total_bytes + lc.summary_raw_total_bytes
            if lc.td_send_bytes is not None:
                td_bytes += float(lc.td_send_bytes.sum())
        bd = result.timing.breakdown
        sim_comm += bd.td_comm + bd.bu_comm
        levels += result.levels
        rank_levels += result.levels * counts.num_ranks
        if result.recovery is not None:
            checkpoint_bytes += result.recovery.checkpoint_bytes
    return {
        "levels": levels,
        "rank_levels": rank_levels,
        "examined_edges": examined,
        "wire_bytes": wire,
        "raw_bytes": raw,
        "alltoallv_bytes": td_bytes,
        "sim_comm_ns": sim_comm,
        "checkpoint_bytes": checkpoint_bytes,
    }


def _after_engine_run(span, args, kwargs, result) -> None:
    span[DATA] = _count_results([result])


def _after_bu_scan(span, args, kwargs, result) -> None:
    span[DATA] = {
        "examined_edges": int(result.examined_edges),
        "gathered_edges": int(result.gathered_edges),
    }


def _after_ms_run_batch(span, args, kwargs, results) -> None:
    span[DATA] = _count_results(results)
    span[DATA]["lanes"] = len(results)
    span[DATA]["rounds"] = max(r.levels for r in results)


def _after_session_run_batch(span, args, kwargs, results) -> None:
    # args = (session, sources, ...): which queries this batch answered.
    span[DATA] = {"sources": [int(s) for s in args[1]]}


def _after_submit(span, args, kwargs, result) -> None:
    # args = (scheduler, source, ...)
    span[DATA] = {"source": int(args[1])}


def _after_run_experiment(span, args, kwargs, result) -> None:
    span[DATA] = {"id": result.experiment_id}


def install(rec: Recorder, kernel_cls=None, codec_classes=()) -> Installed:
    """Wrap the public layer boundaries; returns the handle to restore().

    ``kernel_cls`` is the class of the workload's resolved backend and
    ``codec_classes`` the concrete codecs its (possibly ``auto``) codec can
    resolve to — only what the workload actually runs is wrapped.
    """
    import repro.core.engine
    import repro.core.multisource
    import repro.core.prepared
    import repro.core.timing
    import repro.core.topdown
    import repro.experiments.registry
    import repro.graph.rmat
    import repro.model.extrapolate
    import repro.model.predict
    import repro.mpi.collectives
    import repro.mpi.simcomm
    import repro.serve.scheduler
    import repro.serve.session

    ins = Installed()
    try:
        f, m = ins.function, ins.method
        f(rec, repro.graph.rmat.rmat_graph, "graph.rmat_graph")
        m(rec, repro.core.prepared.PreparedGraph, "prepare", "prepared.prepare")
        m(rec, repro.core.engine.BFSEngine, "run", "engine.run", _after_engine_run)
        if kernel_cls is not None:
            m(rec, kernel_cls, "bottom_up_scan", "kernels.bu_scan", _after_bu_scan)
            m(rec, kernel_cls, "top_down_expand", "kernels.td_expand")
            m(rec, kernel_cls, "bottom_up_scan_batch", "kernels.lane_scan")
        f(rec, repro.core.topdown.apply_received, "engine.td_apply")
        f(rec, repro.mpi.collectives.allgather, "mpi.allgather")
        m(rec, repro.mpi.simcomm.SimComm, "alltoallv", "mpi.alltoallv")
        for cls in codec_classes:
            m(rec, cls, "encode", "codecs.encode")
            m(rec, cls, "decode", "codecs.decode")
        f(rec, repro.core.timing.assemble, "timing.assemble")
        m(
            rec, repro.core.multisource.MultiSourceEngine, "run_batch",
            "multisource.run_batch", _after_ms_run_batch,
        )
        m(
            rec, repro.serve.session.GraphSession, "run_batch",
            "session.run_batch", _after_session_run_batch,
        )
        m(
            rec, repro.serve.scheduler.BatchScheduler, "submit", "scheduler.submit",
            _after_submit,
        )
        f(rec, repro.model.predict.predict_graph500, "model.predict_graph500")
        f(rec, repro.model.extrapolate.extrapolate_result, "model.extrapolate")
        f(
            rec, repro.experiments.registry.run_experiment, "experiments.run",
            _after_run_experiment,
        )
    except BaseException:
        ins.restore()
        raise
    return ins
