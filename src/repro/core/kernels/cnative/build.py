"""Build-and-load machinery for the native (`cnative`) kernels.

The backend ships a small self-contained C source (``bfs_kernels.c``)
inside the package and compiles it on first use with whatever system
compiler is around:

1. ``$CC`` when set (taken verbatim — a broken ``CC`` means *no*
   toolchain, it is never silently ignored);
2. the compiler the interpreter was built with
   (``sysconfig.get_config_var("CC")``);
3. ``cc`` / ``gcc`` / ``clang`` on ``$PATH``.

The shared library is cached under ``~/.cache/repro/`` (override with
``$REPRO_NATIVE_CACHE``) keyed by a hash of the source, the compiler and
the flags, so a source edit or toolchain change rebuilds while repeat
runs just ``dlopen``.  A cache entry that fails to load (corrupted or
stale ``.so``) is deleted and rebuilt once rather than crashing.

Every failure mode — no compiler, compile error, unloadable library,
failed post-load smoke check — raises :class:`NativeBuildError` and is
remembered for the process, so :func:`availability` is cheap after the
first probe and the registry can fall back to ``activeset`` without
re-probing per call.  :func:`reset` clears the memo (tests use it to
exercise the probe under a manipulated environment).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from ctypes import POINTER, c_int64, c_uint64
from pathlib import Path

import numpy as np

__all__ = [
    "CFLAGS",
    "NativeBuildError",
    "availability",
    "cache_dir",
    "find_compiler",
    "library_path",
    "load_library",
    "reset",
    "source_path",
]

#: Flags the shared library is always built with (part of the cache key).
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99")

_SOURCE = Path(__file__).with_name("bfs_kernels.c")

#: Loaded-and-bound library, memoized per process.
_lib: ctypes.CDLL | None = None
#: Probe outcome memo: None = not probed, else (available, reason).
_status: tuple[bool, str | None] | None = None


class NativeBuildError(RuntimeError):
    """The cnative shared library could not be built, loaded or verified."""


def source_path() -> Path:
    """Path of the packaged C source."""
    return _SOURCE


def cache_dir() -> Path:
    """Directory the built shared library is cached in."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def find_compiler() -> list[str] | None:
    """The C compiler argv to use, or None when no toolchain is found.

    ``$CC`` wins when set and resolvable; an unresolvable ``$CC`` means
    no compiler (never silently replaced — the user pinned it).  Without
    ``$CC`` the interpreter's build compiler is tried first, then the
    conventional names on ``$PATH``.
    """
    override = os.environ.get("CC")
    if override is not None:
        argv = shlex.split(override)
        if argv and shutil.which(argv[0]):
            return argv
        return None
    candidates: list[str] = []
    built_with = sysconfig.get_config_var("CC")
    if built_with:
        argv = shlex.split(built_with)
        if argv:
            candidates.append(argv[0])
    candidates.extend(("cc", "gcc", "clang"))
    for name in candidates:
        if shutil.which(name):
            return [name]
    return None


def library_path(compiler: list[str] | None = None) -> Path | None:
    """Cache path of the shared library for ``compiler`` (default: the
    probed one); None when no compiler is available."""
    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(b"\0".join(part.encode() for part in compiler))
    digest.update(b"\0".join(flag.encode() for flag in CFLAGS))
    return cache_dir() / f"bfs_kernels-{digest.hexdigest()[:12]}.so"


def _compile(compiler: list[str], out: Path) -> None:
    """Compile the source to ``out`` atomically (build-to-temp + rename)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so.tmp")
    os.close(fd)
    cmd = [*compiler, *CFLAGS, str(_SOURCE), "-o", tmp]
    try:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeBuildError(
                f"compiler invocation {' '.join(compiler)!r} failed: {exc}"
            ) from exc
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            tail = " | ".join(detail.splitlines()[-3:]) or "no diagnostics"
            raise NativeBuildError(
                f"{' '.join(cmd)} exited {proc.returncode}: {tail}"
            )
        os.replace(tmp, out)
        tmp = None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the exported signatures (raises if a symbol is missing)."""
    i64p, u64p = POINTER(c_int64), POINTER(c_uint64)
    lib.repro_bu_scan.argtypes = [
        c_int64, i64p, i64p, i64p, u64p, u64p, c_int64, i64p, i64p, i64p,
    ]
    lib.repro_bu_scan.restype = c_int64
    lib.repro_lane_pack.argtypes = [c_int64, c_int64, u64p, u64p]
    lib.repro_lane_pack.restype = None
    lib.repro_lane_active.argtypes = [
        c_int64, c_int64, i64p, i64p, i64p, u64p,
    ]
    lib.repro_lane_active.restype = None
    lib.repro_lane_popcount.argtypes = [c_int64, u64p]
    lib.repro_lane_popcount.restype = c_int64
    lib.repro_lane_scan.argtypes = [
        c_int64, i64p, i64p, u64p, u64p, u64p, c_int64, i64p, c_int64,
        i64p, u64p, i64p, i64p, i64p, i64p, i64p,
    ]
    lib.repro_lane_scan.restype = c_int64
    return lib


def _i64(arr: np.ndarray):
    return arr.ctypes.data_as(POINTER(c_int64))


def _u64(arr: np.ndarray):
    return arr.ctypes.data_as(POINTER(c_uint64))


def _smoke_check(lib: ctypes.CDLL) -> None:
    """Run the kernels on a tiny known graph; mismatch = unusable library.

    The graph is the path 0–1–2–3 with frontier {1}.  The single-source
    level runs on two ranks, {0, 1} and {2, 3}, with only vertex 1
    visited: candidates 0 and 2 must retire on their first edge with
    parent 1, candidate 3 must scan its single edge and miss — so a
    rank that ignores its start ``lo`` (CSR rows, parent slice or the
    rebase of its discovery ids) shows up in the ids or the counts.
    The lane kernels see the traversal with visited {0, 1} as lane 0
    and, as lane 1, one with frontier {0} that still seeks vertex 2
    only: it walks both of 2's edges and exhausts them while lane 0
    retires on the first.
    """
    offsets = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    targets = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    bounds = np.array([0, 2, 4], dtype=np.int64)
    parent = np.array([-1, 1, -1, -1], dtype=np.int64)
    inq = np.array([1 << 1], dtype=np.uint64)  # bit 1 set
    new = np.zeros(4, dtype=np.int64)
    counts = np.zeros((4, 2), dtype=np.int64)
    n = lib.repro_bu_scan(
        2, _i64(bounds), _i64(offsets), _i64(targets), _u64(inq),
        None, 0, _i64(parent), _i64(new), _i64(counts),
    )
    if (
        n != 2 or new[:2].tolist() != [0, 2]
        or parent.tolist() != [1, 1, 1, -1]
        or counts.tolist() != [[1, 2]] * 4
    ):
        raise NativeBuildError(
            "smoke check failed for repro_bu_scan: "
            f"n={n} new={new.tolist()} parent={parent.tolist()} "
            f"counts={counts.tolist()}"
        )

    parents = np.array([[0, 1, -1, -1], [0, 1, -1, 3]], dtype=np.int64)
    bitmaps = np.array([[1 << 1], [1 << 0]], dtype=np.uint64)
    rows = np.arange(2, dtype=np.int64)
    act = np.empty(4, dtype=np.uint64)
    inq_lanes = np.empty(64, dtype=np.uint64)
    lib.repro_lane_active(
        4, 2, _i64(parents), _i64(rows), _i64(offsets), _u64(act)
    )
    lib.repro_lane_pack(1, 2, _u64(bitmaps), _u64(inq_lanes))
    pairs = lib.repro_lane_popcount(4, _u64(act))
    lane_counts = np.zeros((3, 64), dtype=np.int64)
    tmp_hit = np.zeros(3, dtype=np.uint64)
    buf = np.zeros((5, 3), dtype=np.int64)  # tmp local/parent, disc triple
    n = lib.repro_lane_scan(
        4, _i64(offsets), _i64(targets), _u64(act), _u64(inq_lanes),
        None, 0, None, 1, _i64(lane_counts), _u64(tmp_hit),
        _i64(buf[0]), _i64(buf[1]), _i64(buf[2]), _i64(buf[3]), _i64(buf[4]),
    )
    if (
        act.tolist() != [0, 0, 3, 1] or inq_lanes[:4].tolist() != [2, 1, 0, 0]
        or pairs != 3 or n != 1 or buf[2:, 0].tolist() != [0, 2, 1]
        or lane_counts[:, :2].tolist() != [[2, 1], [2, 2], [0, 0]]
    ):
        raise NativeBuildError(
            "smoke check failed for repro_lane_scan: "
            f"act={act.tolist()} inq={inq_lanes[:4].tolist()} pairs={pairs} "
            f"n={n} disc={buf[2:, 0].tolist()} "
            f"counts={lane_counts[:, :2].tolist()}"
        )


def load_library() -> ctypes.CDLL:
    """The built, loaded, signature-bound, smoke-checked shared library.

    Memoized per process; raises :class:`NativeBuildError` (also
    memoized — see :func:`availability`) on any failure.
    """
    global _lib, _status
    if _lib is not None:
        return _lib
    if _status is not None and not _status[0]:
        raise NativeBuildError(_status[1])
    try:
        compiler = find_compiler()
        if compiler is None:
            raise NativeBuildError(
                "no C compiler found (checked $CC, the interpreter's build "
                "CC, and cc/gcc/clang on $PATH)"
            )
        path = library_path(compiler)
        assert path is not None
        if not path.exists():
            _compile(compiler, path)
        try:
            lib = _bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            # Corrupted or stale cache entry: rebuild once.
            path.unlink(missing_ok=True)
            _compile(compiler, path)
            lib = _bind(ctypes.CDLL(str(path)))
        _smoke_check(lib)
    except NativeBuildError as exc:
        _status = (False, str(exc))
        raise
    _lib = lib
    _status = (True, None)
    return _lib


def availability() -> tuple[bool, str | None]:
    """``(True, None)`` when the native library is usable, else
    ``(False, reason)``.  Probes (and builds) once per process."""
    if _status is None:
        try:
            load_library()
        except NativeBuildError:
            pass
    assert _status is not None
    return _status


def reset() -> None:
    """Forget the probe outcome and loaded library (test hook)."""
    global _lib, _status
    _lib = None
    _status = None
