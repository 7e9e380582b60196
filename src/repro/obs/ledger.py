"""Persistent, append-only ledger of every measured run (`repro.run/v1`).

The paper's evaluation is longitudinal: every optimization (Figs. 9-16)
is judged by how TEPS, communication volume and per-phase time move
*across* configurations and versions.  The tracer/metrics layer sees one
run and the baseline differ sees one pair; this module is the durable
record in between — every ``repro-experiment``, benchmark, chaos
campaign and perf-gate run appends one JSONL record carrying:

* **identity** — kind (experiment / benchmark / chaos / perf-gate),
  name, UTC timestamp, git commit;
* **config fingerprint** — the resolved (kernel × codec × CommConfig ×
  scale/nodes/ppn ...) axes as a dict plus a stable short hash, so
  trend analysis (:mod:`repro.obs.trend`) never compares runs of
  different configurations;
* **headline metrics** — TEPS, simulated seconds, raw/wire allgather
  bytes, recovery overhead, levels ... (flat name → float);
* **attribution summary** — the Fig. 11 compute/comm split of the run,
  when it was traced;
* **environment provenance** — python/numpy versions, platform,
  hostname, CPU count — so host-dependent numbers are attributable.

Storage is a plain JSONL file under ``.repro/ledger/`` (override with
``$REPRO_LEDGER_DIR``): one JSON object per line, append-only, readable
with ``jq`` and diffable in review.  The ``repro-ledger`` CLI
(:mod:`repro.obs.ledgercli`) wraps this store; the trend checker and the
HTML dashboard (:mod:`repro.obs.dash`) read from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "SCHEMA",
    "LedgerRecord",
    "RunLedger",
    "config_fingerprint",
    "engine_fingerprint",
    "environment_provenance",
    "git_commit",
    "default_ledger",
    "record_for_result",
    "records_from_benchmark_json",
    "record_from_chaos_report",
    "record_from_perfdiff",
]

SCHEMA = "repro.run/v1"

#: Default ledger location, relative to the working directory.
DEFAULT_DIR = os.path.join(".repro", "ledger")
_FILENAME = "runs.jsonl"


# ---------------------------------------------------------------------------
# Provenance and fingerprinting
# ---------------------------------------------------------------------------


def environment_provenance() -> dict:
    """Where a measurement ran: interpreter, numpy, platform, host, CPUs.

    The same block is stamped into ``BENCH_*.json`` ``extra_info`` by
    ``benchmarks/conftest.py`` and compared (as a warning, never a gate)
    by :func:`repro.obs.baseline.diff_baselines`.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "hostname": platform.node(),
        "cpu_count": os.cpu_count() or 0,
    }


def git_commit(cwd: str | Path | None = None) -> str | None:
    """Short commit hash of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def config_fingerprint(axes: dict) -> str:
    """Stable 12-hex-digit hash of a configuration-axes dict."""
    blob = json.dumps(axes, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def engine_fingerprint(engine) -> tuple[str, dict]:
    """The resolved configuration axes of a built engine.

    Uses the *resolved* kernel/codec/ppn (what actually ran), not the
    config's unresolved Nones, so two runs that differ only in how the
    same backend was selected share a fingerprint.
    """
    config = engine.config
    comm = config.comm
    n = engine.graph.num_vertices
    axes = {
        "scale": int(round(math.log2(n))) if n > 0 else 0,
        "nodes": engine.cluster.nodes,
        "ppn": config.resolve_ppn(engine.cluster),
        "kernel": engine.kernel.name,
        "codec": engine.codec.name if engine.codec is not None else "raw",
        "sharing": comm.sharing.value,
        "parallel_allgather": comm.parallel_allgather,
        "allgather": (
            comm.allgather.value if comm.allgather is not None else None
        ),
        "granularity": comm.summary_granularity,
        "use_summary": comm.use_summary,
        "mode": config.mode.value,
        "binding": config.binding.value,
        "degree_balanced": config.degree_balanced,
        "alpha": config.alpha,
        "beta": config.beta,
    }
    return config_fingerprint(axes), axes


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class LedgerRecord:
    """One measured run, as stored in the ledger."""

    kind: str  # experiment | benchmark | chaos | perf-gate
    name: str
    ts: str = field(default_factory=_utc_now)
    commit: str | None = None
    fingerprint: str = ""
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    attribution: dict | None = None
    env: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)
    #: Free-form structured payload (per-scenario overheads, claim text
    #: ...) that trend analysis ignores but the dashboard may render.
    extra: dict = field(default_factory=dict)

    @property
    def series(self) -> tuple[str, str, str]:
        """The trend-series identity: runs are only ever compared within
        one (kind, name, fingerprint) triple."""
        return (self.kind, self.name, self.fingerprint)

    def as_dict(self) -> dict:
        """The record as a plain JSON-ready dict (one ledger line)."""
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "ts": self.ts,
            "commit": self.commit,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "metrics": dict(self.metrics),
            "attribution": (
                dict(self.attribution) if self.attribution is not None else None
            ),
            "env": dict(self.env),
            "labels": dict(self.labels),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LedgerRecord":
        """Rebuild a record from one parsed ledger line."""
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported ledger record schema {schema!r} "
                f"(expected {SCHEMA})"
            )
        return cls(
            kind=doc["kind"],
            name=doc["name"],
            ts=doc.get("ts", ""),
            commit=doc.get("commit"),
            fingerprint=doc.get("fingerprint", ""),
            config=dict(doc.get("config") or {}),
            metrics=dict(doc.get("metrics") or {}),
            attribution=doc.get("attribution"),
            env=dict(doc.get("env") or {}),
            labels=dict(doc.get("labels") or {}),
            extra=dict(doc.get("extra") or {}),
        )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class RunLedger:
    """Append-only JSONL store of :class:`LedgerRecord` lines.

    The directory is created on first append; reads of a missing ledger
    return no records rather than failing, so "no history yet" and
    "clean trend" are the same state for callers.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_DIR
        self.root = Path(root)

    @property
    def path(self) -> Path:
        """The JSONL file all records live in."""
        return self.root / _FILENAME

    def append(self, record: LedgerRecord) -> LedgerRecord:
        """Write one record as a new last line (fills commit/env/ts when
        the caller left them empty)."""
        if not record.ts:
            record.ts = _utc_now()
        if record.commit is None:
            record.commit = git_commit()
        if not record.env:
            record.env = environment_provenance()
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.as_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return record

    def records(
        self,
        kind: str | None = None,
        name: str | None = None,
        fingerprint: str | None = None,
        last: int | None = None,
    ) -> list[LedgerRecord]:
        """All records in append order, optionally filtered; ``last``
        keeps only the newest N *after* filtering."""
        out: list[LedgerRecord] = []
        if not self.path.exists():
            return out
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = LedgerRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt ledger line ({exc})"
                    ) from exc
                if kind is not None and rec.kind != kind:
                    continue
                if name is not None and rec.name != name:
                    continue
                if fingerprint is not None and rec.fingerprint != fingerprint:
                    continue
                out.append(rec)
        if last is not None and last >= 0:
            out = out[-last:] if last else []
        return out

    def series(self) -> dict[tuple[str, str, str], list[LedgerRecord]]:
        """Records grouped by trend series, preserving append order."""
        grouped: dict[tuple[str, str, str], list[LedgerRecord]] = {}
        for rec in self.records():
            grouped.setdefault(rec.series, []).append(rec)
        return grouped

    def __len__(self) -> int:
        return len(self.records())


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------


def _attribution_summary(attr) -> dict | None:
    """Compress a RunAttribution (or its as_dict) to the headline split."""
    if attr is None:
        return None
    doc = attr.as_dict() if hasattr(attr, "as_dict") else dict(attr)
    return {
        "compute_ns": dict(doc.get("compute_ns") or {}),
        "comm_ns": dict(doc.get("comm_ns") or {}),
        "switch_ns": float(doc.get("switch_ns") or 0.0),
        "stall_ns": float(doc.get("stall_ns") or 0.0),
        "total_ns": float(doc.get("total_ns") or 0.0),
        "comm_fraction": float(doc.get("comm_fraction") or 0.0),
    }


def record_for_result(
    kind: str,
    name: str,
    result,
    engine,
    labels: dict | None = None,
    extra_metrics: dict | None = None,
) -> LedgerRecord:
    """Build a ledger record from one executed BFS run.

    ``result`` is a :class:`~repro.core.engine.BFSResult`, ``engine``
    the :class:`~repro.core.engine.BFSEngine` that produced it (needed
    for the resolved configuration axes).  Attribution is included when
    the run was traced.
    """
    fingerprint, axes = engine_fingerprint(engine)
    levels = result.counts.levels
    raw_b = sum(
        lc.inq_raw_total_bytes + lc.summary_raw_total_bytes for lc in levels
    )
    wire_b = sum(
        lc.inq_wire_total_bytes + lc.summary_wire_total_bytes for lc in levels
    )
    td_b = sum(
        float(lc.td_send_bytes.sum())
        for lc in levels
        if lc.td_send_bytes is not None
    )
    metrics = {
        "teps": result.teps,
        "simulated_seconds": result.seconds,
        "levels": float(result.levels),
        "visited": float(result.visited),
        "traversed_edges": float(result.traversed_edges),
        "allgather_raw_bytes": raw_b,
        "allgather_wire_bytes": wire_b,
        "alltoallv_bytes": td_b,
        "recovery_overhead_seconds": (
            result.recovery.overhead_seconds
            if result.recovery is not None
            else 0.0
        ),
    }
    if extra_metrics:
        metrics.update(
            {k: float(v) for k, v in extra_metrics.items() if v is not None}
        )
    attribution = None
    if result.telemetry is not None:
        attribution = _attribution_summary(result.telemetry.attribution)
    return LedgerRecord(
        kind=kind,
        name=name,
        fingerprint=fingerprint,
        config=axes,
        metrics=metrics,
        attribution=attribution,
        labels=dict(labels or {}),
    )


def records_from_benchmark_json(path: str | Path) -> list[LedgerRecord]:
    """One ledger record per benchmark of a pytest-benchmark JSON file.

    Reuses the canonical schema of :mod:`repro.obs.baseline`: context
    keys become configuration axes, numeric extra_info plus the
    wall-clock stats become metrics, and the provenance block stamped by
    ``benchmarks/conftest.py`` (when present) becomes the environment.
    """
    from repro.obs.baseline import Baseline

    base = Baseline.from_benchmark_json(path)
    records = []
    for bench_name, rec in sorted(base.records.items()):
        axes = dict(sorted(rec.context.items()))
        records.append(
            LedgerRecord(
                kind="benchmark",
                name=bench_name,
                ts=base.datetime or "",
                commit=base.commit,
                fingerprint=config_fingerprint(axes),
                config=axes,
                metrics=dict(rec.metrics),
                env=dict(rec.provenance),
                labels={"source": str(path)},
            )
        )
    return records


def record_from_chaos_report(report: dict, source: str = "") -> LedgerRecord:
    """A ledger record summarizing one ``repro.chaos/v1`` campaign."""
    if report.get("schema") != "repro.chaos/v1":
        raise ValueError(
            f"not a chaos report: schema {report.get('schema')!r}"
        )
    scenarios = report.get("scenarios", [])
    finished = [s for s in scenarios if s.get("outcome") != "aborted"]
    overheads = {
        s["name"]: float(s.get("overhead_pct", 0.0)) for s in finished
    }
    axes = {
        "scale": report.get("scale"),
        "nodes": report.get("nodes"),
        "ppn": report.get("ppn"),
        "seed": report.get("seed"),
        "checkpoint_every": report.get("checkpoint_every"),
    }
    baseline = report.get("baseline") or {}
    metrics = {
        "baseline_teps": float(baseline.get("teps", 0.0)),
        "baseline_simulated_seconds": float(baseline.get("seconds", 0.0)),
        "scenarios_total": float(len(scenarios)),
        "scenarios_recovered": float(
            sum(1 for s in scenarios if s.get("outcome") == "recovered")
        ),
        "scenarios_failed": float(
            sum(
                1
                for s in scenarios
                if s.get("outcome") in ("aborted", "mismatch")
            )
        ),
        "recovery_overhead_pct_max": max(overheads.values(), default=0.0),
        "recovery_overhead_pct_mean": (
            sum(overheads.values()) / len(overheads) if overheads else 0.0
        ),
    }
    return LedgerRecord(
        kind="chaos",
        name="campaign",
        fingerprint=config_fingerprint(axes),
        config=axes,
        metrics=metrics,
        labels={"source": source, "ok": str(bool(report.get("ok")))},
        extra={"scenario_overhead_pct": overheads},
    )


def record_from_perfdiff(verdict: dict, source: str = "") -> LedgerRecord:
    """A ledger record summarizing one ``repro.perfdiff/v1`` verdict."""
    if verdict.get("schema") != "repro.perfdiff/v1":
        raise ValueError(
            f"not a perf-diff verdict: schema {verdict.get('schema')!r}"
        )
    rows = verdict.get("rows", [])
    statuses: dict[str, int] = {}
    for row in rows:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    axes = {
        "old": os.path.basename(str(verdict.get("old", ""))),
        "new": os.path.basename(str(verdict.get("new", ""))),
        "tolerance_pct": verdict.get("tolerance_pct"),
        "include_wall": verdict.get("include_wall"),
    }
    metrics = {
        "ok": 1.0 if verdict.get("ok") else 0.0,
        "rows": float(len(rows)),
        "regressions": float(len(verdict.get("regressions", []))),
        "improvements": float(statuses.get("improved", 0)),
        "incomparable": float(statuses.get("incomparable", 0)),
    }
    return LedgerRecord(
        kind="perf-gate",
        name=axes["old"] or "diff",
        fingerprint=config_fingerprint(axes),
        config=axes,
        metrics=metrics,
        labels={"source": source},
    )


def default_ledger() -> RunLedger:
    """The ledger at the default (or ``$REPRO_LEDGER_DIR``) location."""
    return RunLedger()
