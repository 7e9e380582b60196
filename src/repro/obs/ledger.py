"""Run provenance helpers: where a measurement ran, at which commit.

The module once held an append-only run ledger; only three helpers are
still read.  ``benchmarks/e2e/run.py`` stamps every result file with
:func:`environment_provenance` and :func:`git_commit` (imported from
this path, which is why the module keeps its name), and the serve
``/debug/state`` document identifies its workload by
:func:`config_fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

__all__ = [
    "config_fingerprint",
    "environment_provenance",
    "git_commit",
]


def environment_provenance() -> dict:
    """Where a measurement ran: interpreter, numpy, platform, host, CPUs."""
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
