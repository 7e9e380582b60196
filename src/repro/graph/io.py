"""Persistence of edge lists and CSR graphs as ``.npz`` archives.

Benchmarks that sweep many configurations over the same graph reuse a
cached on-disk copy instead of regenerating it; examples use this to hand
graphs between scripts.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import _check_csr_invariants, _check_symmetric
from repro.graph.types import EdgeList, Graph

__all__ = [
    "save_edge_list",
    "load_edge_list",
    "save_graph",
    "load_graph",
    "load_text_edges",
    "save_text_edges",
]

_FORMAT_VERSION = 1


def save_edge_list(path: str | Path, edges: EdgeList) -> None:
    """Write an edge list to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        format=np.int64(_FORMAT_VERSION),
        kind=np.bytes_(b"edge_list"),
        num_vertices=np.int64(edges.num_vertices),
        sources=edges.sources,
        targets=edges.targets,
    )


def load_edge_list(path: str | Path) -> EdgeList:
    """Read an edge list written by :func:`save_edge_list`.

    A truncated or corrupt archive raises a :class:`GraphError` naming
    the damaged member and its byte offset in the file, never a raw
    numpy/zipfile traceback.
    """
    with _open_npz(path) as data:
        _check_kind(data, b"edge_list", path)
        num_vertices = int(_read_member(data, "num_vertices", path))
        sources = _read_member(data, "sources", path)
        targets = _read_member(data, "targets", path)
    if sources.ndim != 1 or sources.shape != targets.shape:
        raise GraphError(
            f"{path}: sources/targets must be equal-length 1-D arrays, "
            f"got shapes {sources.shape} and {targets.shape}",
            path=str(path),
        )
    return EdgeList(
        num_vertices=num_vertices, sources=sources, targets=targets
    )


def save_graph(path: str | Path, graph: Graph) -> None:
    """Write a CSR graph to ``path`` (.npz); metadata is stored as JSON."""
    np.savez_compressed(
        path,
        format=np.int64(_FORMAT_VERSION),
        kind=np.bytes_(b"csr_graph"),
        num_vertices=np.int64(graph.num_vertices),
        offsets=graph.offsets,
        targets=graph.targets,
        meta=np.bytes_(json.dumps(graph.meta).encode("utf-8")),
    )


def load_graph(path: str | Path) -> Graph:
    """Read a CSR graph written by :func:`save_graph`.

    Beyond archive integrity (see :func:`load_edge_list`), the CSR
    structure itself is checked — offset monotonicity and agreement with
    the adjacency length, targets in ``[0, n)``, rows sorted and
    deduplicated without self loops, and symmetry (every arc's reverse
    is stored) — so a damaged or hand-made file can never produce a
    silently wrong graph.
    """
    with _open_npz(path) as data:
        _check_kind(data, b"csr_graph", path)
        num_vertices = int(_read_member(data, "num_vertices", path))
        offsets = _read_member(data, "offsets", path)
        targets = _read_member(data, "targets", path)
        meta_raw = _read_member(data, "meta", path)
    try:
        meta = json.loads(bytes(meta_raw).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise GraphError(
            f"{path}: corrupt JSON metadata block: {exc}",
            path=str(path), member="meta",
        ) from exc
    if offsets.ndim != 1 or offsets.size != num_vertices + 1:
        raise GraphError(
            f"{path}: CSR offsets must have num_vertices+1 "
            f"(= {num_vertices + 1}) entries, got shape {offsets.shape}",
            path=str(path), member="offsets",
        )
    if offsets.size and (
        int(offsets[0]) != 0 or int(offsets[-1]) != targets.size
    ):
        raise GraphError(
            f"{path}: CSR offsets span [{int(offsets[0])}, "
            f"{int(offsets[-1])}] but the adjacency holds {targets.size} "
            f"entries",
            path=str(path), member="offsets",
        )
    if np.any(np.diff(offsets) < 0):
        bad = int(np.argmax(np.diff(offsets) < 0))
        raise GraphError(
            f"{path}: CSR offsets decrease at vertex {bad}",
            path=str(path), member="offsets", vertex=bad,
        )
    graph = Graph(
        num_vertices=num_vertices,
        offsets=offsets,
        targets=targets,
        meta=meta,
    )
    try:
        if targets.size:
            lo, hi = int(targets.min()), int(targets.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphError(
                    f"CSR targets span [{lo}, {hi}], outside "
                    f"[0, {num_vertices})"
                )
        _check_csr_invariants(graph)
        _check_symmetric(graph)
    except GraphError as exc:
        raise GraphError(
            f"{path}: {exc}", path=str(path), member="targets",
            **exc.context,
        ) from exc
    return graph


def load_text_edges(
    path: str | Path,
    num_vertices: int | None = None,
    comment: str = "#",
    align: int = 64,
) -> EdgeList:
    """Read a whitespace-separated text edge list (SNAP / Graph500 ASCII
    style: one ``u v`` pair per line, ``#`` comments).

    ``num_vertices`` defaults to the smallest multiple of ``align`` above
    the largest vertex id, so the result can feed the BFS engine
    directly.
    """
    src: list[int] = []
    dst: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphError(
                    f"{path}:{lineno}: negative vertex id in {line!r}"
                )
            src.append(u)
            dst.append(v)
    sources = np.asarray(src, dtype=np.int64)
    targets = np.asarray(dst, dtype=np.int64)
    if num_vertices is None:
        top = int(max(sources.max(initial=-1), targets.max(initial=-1))) + 1
        num_vertices = max(align, -(-top // align) * align)
    return EdgeList(
        num_vertices=num_vertices, sources=sources, targets=targets
    )


def save_text_edges(path: str | Path, edges: EdgeList) -> None:
    """Write an edge list as SNAP-style text (one ``u v`` per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {edges.num_vertices} vertices, {edges.num_edges} edges\n")
        for u, v in zip(edges.sources.tolist(), edges.targets.tolist()):
            fh.write(f"{u} {v}\n")


def _file_bytes(path: str | Path) -> int:
    """Size of the archive on disk (-1 when it cannot be stat'ed)."""
    try:
        return Path(path).stat().st_size
    except OSError:
        return -1


def _member_offset(path: str | Path, member: str) -> int:
    """Byte offset of a member's local header in the zip (-1 unknown)."""
    import zipfile

    try:
        with zipfile.ZipFile(path) as zf:
            return zf.getinfo(member).header_offset
    except Exception:
        return -1


@contextmanager
def _open_npz(path: str | Path):
    """Open an ``.npz`` graph archive, mapping any parse failure
    (truncated zip directory, not-a-zip) to a :class:`GraphError` that
    names the file and its on-disk size.

    The file is opened here, so it is closed on every path (``np.load``
    leaves a file it opened itself open when parsing fails).  A missing
    file is not a damaged one: ``open`` raises the usual error."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
        except Exception as exc:
            size = _file_bytes(path)
            raise GraphError(
                f"{path}: not a readable .npz graph archive "
                f"({type(exc).__name__}: {exc}); file is {size} bytes on "
                f"disk — truncated download or wrong file?",
                path=str(path), file_bytes=size,
            ) from exc
        with data:
            yield data


def _read_member(data, name: str, path: str | Path):
    """Read one array member, mapping truncation/corruption inside the
    archive to a :class:`GraphError` with the member's byte offset."""
    try:
        return data[name]
    except KeyError as exc:
        raise GraphError(
            f"{path}: archive has no member {name!r} "
            f"(present: {', '.join(sorted(data.files))})",
            path=str(path), member=name, file_bytes=_file_bytes(path),
        ) from exc
    except Exception as exc:
        offset = _member_offset(path, f"{name}.npy")
        raise GraphError(
            f"{path}: member {name!r} is truncated or corrupt at byte "
            f"offset {offset} ({type(exc).__name__}: {exc})",
            path=str(path), member=name, byte_offset=offset,
            file_bytes=_file_bytes(path),
        ) from exc


def _check_kind(data, expected: bytes, path: str | Path) -> None:
    kind = (
        bytes(_read_member(data, "kind", path)) if "kind" in data else b"?"
    )
    if kind != expected:
        raise GraphError(
            f"{path} holds {kind!r}, expected {expected!r}",
            path=str(path),
        )
