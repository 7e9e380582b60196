"""Performance attribution and model-drift analysis of priced BFS runs.

This is the analysis layer on top of the PR-1 telemetry: where the
tracer *records* what happened, this module *explains* it, the way the
paper's Figs. 11/12/14 explain the NUMA optimizations by decomposing
runtime into compute vs. the two allgathers.

Two tools:

* :func:`attribute_run` — the **critical-path analyzer**.  Walks a run's
  :class:`~repro.core.timing.LevelTiming` records (per-rank compute
  durations, per-step collective breakdowns) and emits per-level and
  whole-run attribution: compute per direction, communication split into
  the in_queue allgather / summary allgather / alltoallv / allreduce
  components, the critical (slowest) rank per level, max/mean imbalance
  ratios, and the top-N straggler levels.  Sums reproduce
  :class:`~repro.core.timing.PhaseBreakdown` exactly — attribution is a
  regrouping of the priced timeline, never a re-measurement.

* :func:`detect_model_drift` — the **model-drift detector**.  Compares
  three prediction layers against the simulated actuals and flags
  components whose relative error exceeds a threshold: re-pricing the
  recorded counts through :func:`repro.core.timing.assemble` (catches a
  changed cost model disagreeing with a recorded timeline), the traced
  :class:`~repro.obs.tracer.CommEvent` simulated times vs. the priced
  communication components (catches the functional collectives and the
  pricer diverging), and the :mod:`repro.model.levelprofile` analytic
  predictions vs. the functional run (catches the closed-form model
  drifting from the algorithm it models).

Both emit plain dicts for JSON, terminal text via
:mod:`repro.util.ascii_chart` / :func:`repro.util.formatting.format_table`,
and counters/histograms into a metrics registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.counts import Direction
from repro.core.timing import COMM_COMPONENTS, BfsTiming, assemble

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs <- core)
    from repro.core.engine import BFSEngine, BFSResult
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import RunTelemetry

__all__ = [
    "LevelAttribution",
    "RunAttribution",
    "attribute_run",
    "attribute_timing",
    "DriftComponent",
    "ModelDriftReport",
    "detect_model_drift",
    "DRIFT_SOURCES",
]


# ---------------------------------------------------------------------------
# Critical-path attribution
# ---------------------------------------------------------------------------


@dataclass
class LevelAttribution:
    """Where one level's simulated time went.

    ``compute_ns`` is the mean across ranks (the quantity the phase
    breakdown charges); ``comm_ns`` maps each
    :data:`~repro.core.timing.COMM_COMPONENTS` entry to its share of the
    level's communication time.  ``critical_rank`` is the slowest rank
    (the one the barrier waits for) and ``imbalance`` the max/mean ratio
    of the per-rank compute times.
    """

    level: int
    direction: str
    compute_ns: float
    compute_max_ns: float
    comm_ns: dict[str, float]
    switch_ns: float
    stall_ns: float
    critical_rank: int
    imbalance: float

    @property
    def comm_total_ns(self) -> float:
        """Communication time of the level (all components)."""
        return sum(self.comm_ns.values())

    @property
    def total_ns(self) -> float:
        """Level total, identical to ``LevelTiming.total_ns``."""
        return (
            self.compute_ns + self.comm_total_ns + self.switch_ns + self.stall_ns
        )

    def as_dict(self) -> dict:
        """The level attribution as a plain JSON-ready dict."""
        return {
            "level": self.level,
            "direction": self.direction,
            "compute_ns": self.compute_ns,
            "compute_max_ns": self.compute_max_ns,
            "comm_ns": dict(self.comm_ns),
            "comm_total_ns": self.comm_total_ns,
            "switch_ns": self.switch_ns,
            "stall_ns": self.stall_ns,
            "critical_rank": self.critical_rank,
            "imbalance": self.imbalance,
            "total_ns": self.total_ns,
        }


@dataclass
class RunAttribution:
    """Whole-run attribution: the Fig. 11/12/14 decomposition of a trace."""

    levels: list[LevelAttribution] = field(default_factory=list)
    #: Compute time per direction (sum of per-level means), ns.
    compute_ns: dict[str, float] = field(default_factory=dict)
    #: Communication time per component, summed over levels, ns.
    comm_ns: dict[str, float] = field(default_factory=dict)
    switch_ns: float = 0.0
    stall_ns: float = 0.0

    @property
    def comm_total_ns(self) -> float:
        """All communication components summed, ns."""
        return sum(self.comm_ns.values())

    @property
    def compute_total_ns(self) -> float:
        """Both compute directions summed, ns."""
        return sum(self.compute_ns.values())

    @property
    def total_ns(self) -> float:
        """Run total: identical to ``PhaseBreakdown.total``."""
        return (
            self.compute_total_ns
            + self.comm_total_ns
            + self.switch_ns
            + self.stall_ns
        )

    @property
    def comm_fraction(self) -> float:
        """Communication share of the total (the Fig. 12/14 curve,
        generalized to every component)."""
        total = self.total_ns
        return self.comm_total_ns / total if total else 0.0

    @property
    def critical_rank_counts(self) -> dict[int, int]:
        """How many levels each rank was the critical (slowest) one."""
        counts: dict[int, int] = {}
        for lv in self.levels:
            if lv.critical_rank >= 0:
                counts[lv.critical_rank] = counts.get(lv.critical_rank, 0) + 1
        return counts

    def imbalance(self, direction: str | None = None) -> dict[str, float]:
        """Mean/max of the per-level max/mean compute-imbalance ratios,
        optionally restricted to one direction."""
        ratios = [
            lv.imbalance
            for lv in self.levels
            if direction is None or lv.direction == direction
        ]
        if not ratios:
            return {"mean": 1.0, "max": 1.0}
        return {
            "mean": float(np.mean(ratios)),
            "max": float(np.max(ratios)),
        }

    def top_stragglers(self, n: int = 3, key: str = "stall_ns") -> list[LevelAttribution]:
        """The ``n`` levels with the largest ``key`` (``stall_ns``,
        ``total_ns``, ``comm_total_ns``...), worst first."""
        return sorted(
            self.levels, key=lambda lv: getattr(lv, key), reverse=True
        )[:n]

    def as_dict(self) -> dict:
        """The whole attribution as a plain JSON-ready dict."""
        return {
            "schema": "repro.attribution/v1",
            "levels": [lv.as_dict() for lv in self.levels],
            "compute_ns": dict(self.compute_ns),
            "comm_ns": dict(self.comm_ns),
            "switch_ns": self.switch_ns,
            "stall_ns": self.stall_ns,
            "total_ns": self.total_ns,
            "comm_fraction": self.comm_fraction,
            "critical_rank_counts": {
                str(r): c for r, c in sorted(self.critical_rank_counts.items())
            },
            "imbalance": {
                "all": self.imbalance(),
                Direction.TOP_DOWN: self.imbalance(Direction.TOP_DOWN),
                Direction.BOTTOM_UP: self.imbalance(Direction.BOTTOM_UP),
            },
        }

    def to_text(self, top: int = 3, width: int = 36) -> str:
        """Terminal report: whole-run split chart, per-level table,
        straggler list (the Fig. 11 reading, from a trace)."""
        from repro.util.ascii_chart import bar_chart
        from repro.util.formatting import format_table, format_time_ns

        labels = [f"compute:{d}" for d in sorted(self.compute_ns)]
        values = [self.compute_ns[d] for d in sorted(self.compute_ns)]
        for comp in sorted(self.comm_ns):
            labels.append(f"comm:{comp}")
            values.append(self.comm_ns[comp])
        labels.extend(["switch", "stall"])
        values.extend([self.switch_ns, self.stall_ns])
        parts = [
            bar_chart(
                labels,
                [v / 1e6 for v in values],
                width=width,
                unit="ms",
                title=(
                    f"run attribution (total "
                    f"{format_time_ns(self.total_ns)}, comm "
                    f"{self.comm_fraction * 100:.1f}%)"
                ),
            )
        ]
        rows = []
        for lv in self.levels:
            rows.append(
                [
                    lv.level,
                    lv.direction,
                    format_time_ns(lv.compute_ns),
                    format_time_ns(lv.comm_ns["allgather_in_queue"]),
                    format_time_ns(lv.comm_ns["allgather_summary"]),
                    format_time_ns(lv.comm_ns["alltoallv"]),
                    format_time_ns(lv.comm_ns["allreduce"]),
                    format_time_ns(lv.stall_ns),
                    format_time_ns(lv.total_ns),
                    lv.critical_rank,
                    f"{lv.imbalance:.2f}",
                ]
            )
        parts.append("")
        parts.append(
            format_table(
                [
                    "lvl",
                    "dir",
                    "compute",
                    "ag:inq",
                    "ag:sum",
                    "a2av",
                    "allred",
                    "stall",
                    "total",
                    "crit",
                    "imbal",
                ],
                rows,
                title="per-level attribution",
            )
        )
        stragglers = self.top_stragglers(top)
        if stragglers:
            parts.append("")
            parts.append(f"top {len(stragglers)} straggler levels (by stall):")
            for lv in stragglers:
                parts.append(
                    f"  level {lv.level:2d} [{lv.direction}] stall "
                    f"{format_time_ns(lv.stall_ns)} (critical rank "
                    f"{lv.critical_rank}, imbalance {lv.imbalance:.2f})"
                )
        return "\n".join(parts)


def attribute_timing(timing: BfsTiming) -> RunAttribution:
    """Attribute a priced timeline (the core of :func:`attribute_run`)."""
    attr = RunAttribution(
        compute_ns={Direction.TOP_DOWN: 0.0, Direction.BOTTOM_UP: 0.0},
        comm_ns=dict.fromkeys(COMM_COMPONENTS, 0.0),
    )
    for lt in timing.levels:
        comm = lt.comm_components()
        lv = LevelAttribution(
            level=lt.level,
            direction=lt.direction,
            compute_ns=lt.compute_mean_ns,
            compute_max_ns=lt.compute_max_ns,
            comm_ns=comm,
            switch_ns=lt.switch_ns,
            stall_ns=lt.stall_ns,
            critical_rank=lt.critical_rank,
            imbalance=lt.compute_imbalance,
        )
        attr.levels.append(lv)
        attr.compute_ns[lt.direction] = (
            attr.compute_ns.get(lt.direction, 0.0) + lt.compute_mean_ns
        )
        for comp, t in comm.items():
            attr.comm_ns[comp] = attr.comm_ns.get(comp, 0.0) + t
        attr.switch_ns += lt.switch_ns
        attr.stall_ns += lt.stall_ns
    return attr


def attribute_run(result: "BFSResult") -> RunAttribution:
    """Attribute one run's priced timeline.

    The engine calls this automatically for traced runs and attaches the
    result as ``BFSResult.telemetry.attribution``.
    """
    return attribute_timing(result.timing)


# ---------------------------------------------------------------------------
# Model-drift detection
# ---------------------------------------------------------------------------

#: The three prediction layers :func:`detect_model_drift` can check.
DRIFT_SOURCES = ("pricing", "trace", "analytic")


@dataclass
class DriftComponent:
    """One predicted-vs-actual comparison."""

    source: str
    component: str
    predicted: float
    actual: float
    flagged: bool = False

    @property
    def rel_error(self) -> float:
        """Signed relative error (predicted - actual) / actual; uses the
        predicted value as denominator when the actual is zero, and 0.0
        when both are."""
        if self.actual != 0.0:
            return (self.predicted - self.actual) / abs(self.actual)
        if self.predicted != 0.0:
            return math.inf
        return 0.0

    def as_dict(self) -> dict:
        """The comparison as a plain JSON-ready dict."""
        return {
            "source": self.source,
            "component": self.component,
            "predicted": self.predicted,
            "actual": self.actual,
            "rel_error": self.rel_error,
            "flagged": self.flagged,
        }


@dataclass
class ModelDriftReport:
    """All drift comparisons of one run, with the flagging threshold."""

    threshold: float
    components: list[DriftComponent] = field(default_factory=list)

    @property
    def flagged(self) -> list[DriftComponent]:
        """Components whose |relative error| exceeded the threshold."""
        return [c for c in self.components if c.flagged]

    @property
    def ok(self) -> bool:
        """True when nothing drifted past the threshold."""
        return not self.flagged

    def by_source(self, source: str) -> list[DriftComponent]:
        """The comparisons of one prediction layer."""
        return [c for c in self.components if c.source == source]

    def as_dict(self) -> dict:
        """The report as a plain JSON-ready dict."""
        return {
            "schema": "repro.drift/v1",
            "threshold": self.threshold,
            "ok": self.ok,
            "flagged": [c.as_dict() for c in self.flagged],
            "components": [c.as_dict() for c in self.components],
        }

    def to_text(self, max_rows: int = 40) -> str:
        """Terminal report: flagged components first, worst error first."""
        from repro.util.formatting import format_table

        ordered = sorted(
            self.components,
            key=lambda c: (not c.flagged, -abs(c.rel_error)),
        )
        rows = []
        for c in ordered[:max_rows]:
            rows.append(
                [
                    c.source,
                    c.component,
                    f"{c.predicted:.6g}",
                    f"{c.actual:.6g}",
                    f"{c.rel_error * 100:+.2f}%"
                    if math.isfinite(c.rel_error)
                    else "inf",
                    "DRIFT" if c.flagged else "ok",
                ]
            )
        title = (
            f"model drift (threshold {self.threshold * 100:.1f}%): "
            + (
                "no component drifted"
                if self.ok
                else f"{len(self.flagged)} component(s) drifted"
            )
        )
        table = format_table(
            ["source", "component", "predicted", "actual", "rel err", ""],
            rows,
            title=title,
        )
        if len(ordered) > max_rows:
            table += f"\n({len(ordered) - max_rows} more rows elided)"
        return table

    def record(self, metrics: "MetricsRegistry") -> None:
        """Fold the report into a metrics registry: per-source component
        counters, flag counters and |rel error| histograms."""
        for c in self.components:
            metrics.counter(
                "model.drift_components_total", source=c.source
            ).inc()
            if math.isfinite(c.rel_error):
                metrics.histogram(
                    "model.drift_rel_error", source=c.source
                ).observe(abs(c.rel_error))
            if c.flagged:
                metrics.counter(
                    "model.drift_flagged_total", source=c.source
                ).inc()


def _component(
    source: str,
    name: str,
    predicted: float,
    actual: float,
    threshold: float,
) -> DriftComponent:
    c = DriftComponent(
        source=source,
        component=name,
        predicted=float(predicted),
        actual=float(actual),
    )
    c.flagged = not (abs(c.rel_error) <= threshold)
    return c


def _pricing_drift(
    result: "BFSResult", engine: "BFSEngine", threshold: float
) -> list[DriftComponent]:
    """Re-price the recorded counts and compare against the recorded
    timeline.  Any drift here means the cost model changed under a
    stored result (or pricing became non-deterministic)."""
    repriced = assemble(
        result.counts, engine.comm, engine.config, engine.sizes,
        engine.constants,
    )
    out = []
    actual_bd = result.timing.breakdown.as_dict()
    for phase, ns in repriced.breakdown.as_dict().items():
        out.append(
            _component(
                "pricing", f"breakdown.{phase}", ns, actual_bd[phase],
                threshold,
            )
        )
    for new_lt, old_lt in zip(repriced.levels, result.timing.levels):
        out.append(
            _component(
                "pricing",
                f"level{old_lt.level}.total_ns",
                new_lt.total_ns,
                old_lt.total_ns,
                threshold,
            )
        )
    return out


def _trace_drift(
    telemetry: "RunTelemetry",
    attr: RunAttribution,
    threshold: float,
) -> list[DriftComponent]:
    """Compare the traced collectives' simulated times against the
    priced communication components.

    The functional collectives and the timing assembler price the same
    payloads independently; disagreement means one of them changed
    without the other (the exact failure mode the PR-3 codec pricing
    mirrors guard against).  Only ops that execute functionally are
    compared: the summary allgather is priced but never transmitted, and
    the control allreduces are counted, not executed.  A traced run
    executes every level's ``alltoallv``, which ``assemble`` prices in
    one stacked call: equal sums pin that call to the per-level one.
    """
    per_op: dict[str, float] = {}
    for ev in telemetry.comm_events:
        per_op[ev.op] = per_op.get(ev.op, 0.0) + ev.max_time_ns
    comparisons = {
        "allgather": attr.comm_ns.get("allgather_in_queue", 0.0),
        "alltoallv": attr.comm_ns.get("alltoallv", 0.0),
    }
    out = []
    for op, priced in comparisons.items():
        traced = per_op.get(op, 0.0)
        if traced == 0.0 and priced == 0.0:
            continue
        out.append(
            _component(
                "trace", f"comm.{op}_sim_ns", traced, priced, threshold
            )
        )
    return out


def _analytic_drift(
    result: "BFSResult", engine: "BFSEngine", threshold: float
) -> list[DriftComponent]:
    """Compare the closed-form level-profile model's predictions against
    the functional run's actuals, per level and whole-run."""
    from repro.model.analytic import analytic_graph500

    scale = int(round(math.log2(result.counts.num_vertices)))
    ana = analytic_graph500(engine.cluster, engine.config, scale)
    out = [
        _component(
            "analytic",
            "levels",
            ana.counts.num_levels,
            result.counts.num_levels,
            threshold,
        ),
        _component(
            "analytic",
            "visited_vertices",
            ana.counts.visited_vertices,
            result.counts.visited_vertices,
            threshold,
        ),
        _component(
            "analytic",
            "traversed_edges",
            ana.counts.traversed_edges,
            result.counts.traversed_edges,
            threshold,
        ),
        _component(
            "analytic",
            "examined_edges",
            ana.counts.total_examined_edges(),
            result.counts.total_examined_edges(),
            threshold,
        ),
        _component(
            "analytic",
            "simulated_seconds",
            ana.seconds,
            result.seconds,
            threshold,
        ),
        _component("analytic", "teps", ana.teps, result.teps, threshold),
    ]
    for pred, actual in zip(ana.counts.levels, result.counts.levels):
        out.append(
            _component(
                "analytic",
                f"level{actual.level}.examined_edges",
                float(pred.examined_edges.sum()),
                float(actual.examined_edges.sum()),
                threshold,
            )
        )
    return out


def detect_model_drift(
    result: "BFSResult",
    engine: "BFSEngine",
    threshold: float = 0.25,
    sources: tuple[str, ...] = DRIFT_SOURCES,
    metrics: "MetricsRegistry | None" = None,
) -> ModelDriftReport:
    """Check every requested prediction layer against ``result``.

    ``threshold`` is the relative-error bound per component (0.25 = 25 %).
    The ``pricing`` and ``trace`` layers are near-exact by construction,
    so they share the drift threshold; the ``analytic`` layer is a
    closed-form approximation and is usually checked with a much looser
    bound (the perf CLI defaults to 1.0 for it).  When ``metrics`` is
    given the report is also folded into the registry.
    """
    unknown = set(sources) - set(DRIFT_SOURCES)
    if unknown:
        raise ValueError(
            f"unknown drift sources {sorted(unknown)}; "
            f"known: {DRIFT_SOURCES}"
        )
    report = ModelDriftReport(threshold=threshold)
    if "pricing" in sources:
        report.components.extend(_pricing_drift(result, engine, threshold))
    if "trace" in sources and result.telemetry is not None:
        attr = attribute_run(result)
        report.components.extend(
            _trace_drift(result.telemetry, attr, threshold)
        )
    if "analytic" in sources:
        report.components.extend(_analytic_drift(result, engine, threshold))
    if metrics is not None:
        report.record(metrics)
    return report
