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
from ctypes import c_int64, c_void_p
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
    """Declare the exported signatures (raises if a symbol is missing).

    Buffers go over as bare addresses (:func:`_ptr`): the kernels are
    called a few times per level, and ``data_as`` costs about twice what
    the ``c_void_p`` handoff does.
    """
    i64, ptr = c_int64, c_void_p
    lib.repro_bu_scan.argtypes = (
        [i64, ptr, ptr, ptr, ptr, ptr, i64] + [ptr] * 3
    )
    lib.repro_bu_scan.restype = i64
    lib.repro_td_step.argtypes = [
        i64, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr,
    ]
    lib.repro_td_step.restype = i64
    return lib


def _ptr(arr: np.ndarray) -> int:
    """Address of ``arr``'s first element, for a ``c_void_p`` argument."""
    return arr.ctypes.data


def _td_scratch_words(n: int, ranks: int, lanes: int) -> int:
    """Size in int64 words of ``repro_td_step``'s zeroed scratch: the
    three count tables, the (owner, sender) claims, two bitmaps and the
    int32 owner of every word (layout in bfs_kernels.c)."""
    words = -(-n // 64)
    return (
        lanes * ranks * (ranks + 2) + ranks * ranks + 2 * words
        + (words + 1) // 2
    )


def _smoke_check(lib: ctypes.CDLL) -> None:
    """Run the kernels on a tiny known graph; mismatch = unusable library.

    The graph is the path 0–1–2–3 with frontier {1}.  The single-source
    level runs on two ranks, {0, 1} and {2, 3}, with only vertex 1
    visited: candidates 0 and 2 must retire on their first edge with
    parent 1, candidate 3 must scan its single edge and miss — so a
    rank that ignores its start ``lo`` (CSR rows, parent slice or the
    rebase of its discovery ids) shows up in the ids or the counts.
    The top-down step gets its own small graph (see the comment there):
    a race between senders, a child repeated within one sender, an
    already-visited child, unaligned rank bounds and a second lane.
    """
    offsets = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    targets = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    bounds = np.array([0, 2, 4], dtype=np.int64)
    parent = np.array([-1, 1, -1, -1], dtype=np.int64)
    inq = np.array([1 << 1], dtype=np.uint64)  # bit 1 set
    new = np.zeros(4, dtype=np.int64)
    counts = np.zeros((4, 2), dtype=np.int64)
    n = lib.repro_bu_scan(
        2, _ptr(bounds), _ptr(offsets), _ptr(targets), _ptr(inq),
        None, 0, _ptr(parent), _ptr(new), _ptr(counts),
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

    # Top-down: 8 vertices over the unaligned ranks {0, 1, 2} and
    # {3, ..., 7}.  Lane 0 (parent row 1, visited {0, 1, 2, 4}) expands
    # 0 -> [5, 2] and 1 -> [5, 6] on rank 0 and 4 -> [3, 6] on rank 1:
    # 5 is repeated within rank 0 (first offer wins, one pair), rank 1
    # loses the race for 6 to rank 0, and visited 2 costs a pair but is
    # not discovered.  The next frontier is rank 1's [5, 6] from sender
    # 0, then [3] from sender 1.  Lane 1 (row 0, visited {0}) expands
    # 0 alone, after lane 0 left its stamps and discovery bits behind.
    offsets = np.array([0, 2, 4, 4, 5, 7, 8, 9, 9], dtype=np.int64)
    targets = np.array([5, 2, 5, 6, 4, 3, 6, 0, 1], dtype=np.int64)
    bounds = np.array([0, 3, 8], dtype=np.int64)
    front = np.array([0, 1, 4, 0], dtype=np.int64)
    # rows [1, 0], front_cuts [0, 3, 4], out_cuts (written).
    lanes = np.array([1, 0, 0, 3, 4, -1, -1, -1], dtype=np.int64)
    parents = np.full((2, 8), -1, dtype=np.int64)
    parents[:, 0] = 0
    parents[1, [1, 2, 4]] = [0, 0, 1]
    scratch = np.zeros(_td_scratch_words(8, 2, 2), dtype=np.int64)
    out = np.zeros(16, dtype=np.int64)
    n = lib.repro_td_step(
        8, _ptr(offsets), _ptr(targets), 2, _ptr(bounds), 2, _ptr(front),
        _ptr(lanes), 2, _ptr(parents), _ptr(scratch), _ptr(out),
    )
    # Examined (lanes x ranks), send bytes (lanes x ranks x ranks),
    # discovered degree (lanes x ranks).
    got = scratch[:16].tolist()
    if (
        n != 5 or out[:5].tolist() != [5, 6, 3, 2, 5]
        or lanes[5:].tolist() != [0, 3, 5]
        or parents.tolist() != [
            [0, -1, 0, -1, -1, 0, -1, -1], [0, 0, 0, 4, 1, 0, 1, -1],
        ]
        or got != [
            4, 2, 2, 0, 16, 32, 0, 32, 16, 16, 0, 0, 0, 3, 0, 1,
        ]
        # Claim counts and both bitmaps are cleared again (and the one
        # word's owner is rank 0).
        or any(scratch[16:].tolist())
    ):
        raise NativeBuildError(
            "smoke check failed for repro_td_step: "
            f"n={n} out={out[:max(n, 0)].tolist()} "
            f"cuts={lanes[5:].tolist()} parent={parents.tolist()} "
            f"counts={got}"
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
