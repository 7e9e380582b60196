"""SLO objectives and multiwindow burn-rate evaluation over live metrics.

The serving layer records request counters and the ``serve.latency_ms``
histogram into a :class:`~repro.obs.metrics.MetricsRegistry`; this
module turns those raw series into *judgements*: declared objectives
(p99 latency ≤ X ms, error rate ≤ Y), an error budget per objective, and
the classic two-window burn-rate test — a short window that catches fast
budget burn (outage-grade) and a long window that catches slow sustained
burn — scaled down from the canonical 5m/1h pairing to seconds so a
load-generator campaign lasting a few seconds still produces meaningful
windows.

:class:`SLOMonitor` samples the registry over time (the load generator
drives :meth:`~SLOMonitor.sample` while requests flow) and
:meth:`~SLOMonitor.evaluate` reduces the sample history to one verdict
per objective:

* ``ok`` — neither window burns above its threshold;
* ``fast_burn`` / ``slow_burn`` — one window exceeds its threshold
  (warning-grade);
* ``breach`` — *both* windows exceed their thresholds, the multiwindow
  page condition;
* ``insufficient`` — not enough traffic in the windows to judge.

The final report is ``repro.slo/v1``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA",
    "SLOObjective",
    "SLOSpec",
    "SLOMonitor",
    "VERDICT_SEVERITY",
]

SCHEMA = "repro.slo/v1"

#: Verdicts ordered by severity; the overall verdict is the worst one.
VERDICT_SEVERITY = {
    "ok": 0,
    "insufficient": 1,
    "slow_burn": 2,
    "fast_burn": 3,
    "breach": 4,
}

#: Registry series the monitor reads (summed across label sets).
REQUESTS_COUNTER = "serve.requests_total"
ERRORS_COUNTER = "serve.errors_total"
LATENCY_HISTOGRAM = "serve.latency_ms"


@dataclass(frozen=True)
class SLOObjective:
    """One objective: a latency quantile bound or an error-rate bound.

    ``kind="latency"``: at least ``quantile``% of requests must finish
    within ``threshold_ms`` — the error budget is the allowed slow
    fraction, ``1 - quantile/100``.  ``kind="error_rate"``: at most
    ``max_rate`` of requests may fail — the budget is ``max_rate``
    itself.  Burn rate is (bad fraction in window) / budget: 1.0 means
    exactly on budget, higher means the budget is being spent early.
    """

    kind: str  # "latency" | "error_rate"
    threshold_ms: float = 0.0
    quantile: float = 99.0
    max_rate: float = 0.001

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate"):
            raise ValueError(f"unknown SLO objective kind {self.kind!r}")
        if self.kind == "latency":
            if not 0.0 < self.quantile < 100.0:
                raise ValueError(
                    f"latency quantile {self.quantile} outside (0, 100)"
                )
            if self.threshold_ms <= 0:
                raise ValueError("latency threshold_ms must be positive")
        elif not 0.0 < self.max_rate < 1.0:
            raise ValueError(f"error-rate bound {self.max_rate} outside (0, 1)")

    @property
    def budget(self) -> float:
        """The allowed bad-event fraction (the error budget)."""
        if self.kind == "latency":
            return 1.0 - self.quantile / 100.0
        return self.max_rate

    @property
    def label(self) -> str:
        """Stable identifier, e.g. ``p99_le_5ms`` or ``errors_le_0.1pct``."""
        if self.kind == "latency":
            q = f"{self.quantile:g}".replace(".", "_")
            t = f"{self.threshold_ms:g}".replace(".", "_")
            return f"p{q}_le_{t}ms"
        r = f"{self.max_rate * 100:g}".replace(".", "_")
        return f"errors_le_{r}pct"

    def as_dict(self) -> dict:
        """The objective as a JSON-ready dict."""
        doc = {"kind": self.kind, "label": self.label, "budget": self.budget}
        if self.kind == "latency":
            doc["threshold_ms"] = self.threshold_ms
            doc["quantile"] = self.quantile
        else:
            doc["max_rate"] = self.max_rate
        return doc


@dataclass(frozen=True)
class SLOSpec:
    """A named set of objectives plus the two burn-rate windows.

    The window/burn pairs are the seconds-scaled analogue of the
    canonical (5m, burn 14.4) / (1h, burn 6) multiwindow alert: the fast
    window catches a budget being torched right now, the slow window
    catches sustained leakage, and only *both* firing together counts as
    a breach.
    """

    name: str = "serving"
    objectives: tuple = field(
        default_factory=lambda: (
            SLOObjective(kind="latency", threshold_ms=50.0, quantile=99.0),
            SLOObjective(kind="error_rate", max_rate=0.001),
        )
    )
    fast_window_s: float = 5.0
    slow_window_s: float = 30.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an SLO spec needs at least one objective")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s"
            )

    def as_dict(self) -> dict:
        """The spec as a JSON-ready dict."""
        return {
            "name": self.name,
            "objectives": [o.as_dict() for o in self.objectives],
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }


@dataclass(frozen=True)
class _Sample:
    """One point-in-time snapshot of the SLO-relevant registry series."""

    t: float
    requests: float
    errors: float
    latency_count: float
    #: objective label -> observations at/under that objective's threshold
    good: dict


class SLOMonitor:
    """Sample a registry over time and judge it against an SLO spec.

    ``clock`` is injectable (tests drive a fake monotonic clock);
    ``interval`` is the suggested sampling period for drivers
    (defaults to ``fast_window_s / 5`` so the fast window always spans
    several samples).  Sampling is cheap — a registry snapshot plus a
    few sums — and evaluation never touches the registry, only the
    recorded samples.
    """

    def __init__(self, registry, spec: SLOSpec | None = None, *,
                 clock=time.monotonic, interval: float | None = None,
                 max_samples: int = 4096) -> None:
        self.registry = registry
        self.spec = spec if spec is not None else SLOSpec()
        self.clock = clock
        self.interval = (
            float(interval)
            if interval is not None
            else self.spec.fast_window_s / 5.0
        )
        self._samples: deque[_Sample] = deque(maxlen=max_samples)

    # ---- sampling --------------------------------------------------------

    def sample(self) -> _Sample:
        """Snapshot the SLO-relevant series now and append to history."""
        counters, _gauges, histograms = self.registry.snapshot()

        def counter_sum(name: str) -> float:
            return sum(
                c.value for (n, _labels), c in counters.items() if n == name
            )

        hists = [
            h
            for (n, _labels), h in histograms.items()
            if n == LATENCY_HISTOGRAM
        ]
        good: dict[str, float] = {}
        for obj in self.spec.objectives:
            if obj.kind == "latency":
                good[obj.label] = float(
                    sum(h.count_le(obj.threshold_ms) for h in hists)
                )
        snap = _Sample(
            t=float(self.clock()),
            requests=counter_sum(REQUESTS_COUNTER),
            errors=counter_sum(ERRORS_COUNTER),
            latency_count=float(sum(h.count for h in hists)),
            good=good,
        )
        self._samples.append(snap)
        return snap

    @property
    def samples(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    # ---- evaluation ------------------------------------------------------

    def _baseline(self, now: float, window: float) -> _Sample:
        """The newest sample at or before ``now - window`` (else oldest)."""
        cutoff = now - window
        chosen = self._samples[0]
        for snap in self._samples:
            if snap.t <= cutoff:
                chosen = snap
            else:
                break
        return chosen

    def _window_fractions(self, obj: SLOObjective, now: float,
                          window: float) -> tuple[float | None, float]:
        """(bad_fraction, event_delta) of one objective over one window.

        ``bad_fraction`` is None when no events landed in the window —
        "no traffic" must stay distinguishable from "no failures".
        """
        latest = self._samples[-1]
        base = self._baseline(now, window)
        if obj.kind == "error_rate":
            events = latest.requests - base.requests
            bad = latest.errors - base.errors
        else:
            events = latest.latency_count - base.latency_count
            bad = events - (
                latest.good.get(obj.label, 0.0) - base.good.get(obj.label, 0.0)
            )
        if events <= 0:
            return None, 0.0
        return max(0.0, bad) / events, events

    def evaluate(self, now: float | None = None) -> dict:
        """Reduce the sample history to a ``repro.slo/v1`` report."""
        spec = self.spec
        if now is None:
            now = self._samples[-1].t if self._samples else float(self.clock())
        objectives: list[dict] = []
        overall = "ok" if self._samples else "insufficient"
        for obj in spec.objectives:
            doc = obj.as_dict()
            if not self._samples:
                doc.update(verdict="insufficient", windows={})
                objectives.append(doc)
                continue
            windows: dict[str, dict] = {}
            burning = {}
            for win_name, win_s, burn_limit in (
                ("fast", spec.fast_window_s, spec.fast_burn),
                ("slow", spec.slow_window_s, spec.slow_burn),
            ):
                bad_fraction, events = self._window_fractions(obj, now, win_s)
                burn = (
                    bad_fraction / obj.budget
                    if bad_fraction is not None
                    else None
                )
                burning[win_name] = burn is not None and burn >= burn_limit
                windows[win_name] = {
                    "window_s": win_s,
                    "events": events,
                    "bad_fraction": bad_fraction,
                    "burn_rate": burn,
                    "burn_limit": burn_limit,
                    "burning": burning[win_name],
                }
            if all(w["burn_rate"] is None for w in windows.values()):
                verdict = "insufficient"
            elif burning["fast"] and burning["slow"]:
                verdict = "breach"
            elif burning["fast"]:
                verdict = "fast_burn"
            elif burning["slow"]:
                verdict = "slow_burn"
            else:
                verdict = "ok"
            doc.update(verdict=verdict, windows=windows)
            objectives.append(doc)
            if VERDICT_SEVERITY[verdict] > VERDICT_SEVERITY[overall]:
                overall = verdict
        latest = self._samples[-1] if self._samples else None
        return {
            "schema": SCHEMA,
            "slo": spec.name,
            "spec": spec.as_dict(),
            "verdict": overall,
            "objectives": objectives,
            "samples": len(self._samples),
            "elapsed_s": (
                (self._samples[-1].t - self._samples[0].t)
                if len(self._samples) > 1
                else 0.0
            ),
            "totals": {
                "requests": latest.requests if latest else 0.0,
                "errors": latest.errors if latest else 0.0,
                "latency_observations": (
                    latest.latency_count if latest else 0.0
                ),
            },
        }

