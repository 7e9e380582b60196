"""Level-granular checkpointing of BFS engine state.

A :class:`BFSCheckpoint` captures everything the engine needs to resume
a run at the start of a level, as the run's own global arrays: the
parent array, the per-rank unexplored degrees, the frontier (global
ids, in the level loop's order), the codec's common-knowledge visited
mask, the direction-policy state and the level counter.  Checkpoints
are deep copies — later mutation of the live run never leaks in — and
round-trip bit-identically through the on-disk ``.npz`` format (format
2: one archive member per array).

Stores implement a two-method protocol (``put`` / ``latest``):
:class:`MemoryCheckpointStore` keeps copies in RAM,
:class:`DiskCheckpointStore` persists each checkpoint as
``ckpt_level####.npz`` under a directory (surviving the process), both
raising :class:`~repro.errors.CheckpointError` on malformed input.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "BFSCheckpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
]

_FORMAT = 2


@dataclass
class BFSCheckpoint:
    """A resumable snapshot of one BFS run at a level boundary."""

    level: int
    prev_direction: str | None
    policy_direction: str
    policy_finished_bottom_up: bool
    parent: np.ndarray
    unexplored: np.ndarray
    frontier: np.ndarray
    visited_words: np.ndarray | None

    @property
    def nbytes(self) -> int:
        """Payload size (the quantity recovery pricing charges): what
        the ranks would write — parent slices, frontiers, one unexplored
        degree each — plus the codec's visited mask."""
        total = self.parent.nbytes + self.frontier.nbytes
        total += 8 * self.unexplored.size
        if self.visited_words is not None:
            total += self.visited_words.nbytes
        return int(total)

    # ---- capture / restore ------------------------------------------------

    @classmethod
    def capture(
        cls,
        *,
        level: int,
        prev_direction: str | None,
        policy,
        parent: np.ndarray,
        unexplored: np.ndarray,
        frontier: np.ndarray,
        visited_words: np.ndarray | None,
    ) -> "BFSCheckpoint":
        """Deep-copy the engine's mutable state at a level boundary."""
        return cls(
            level=int(level),
            prev_direction=prev_direction,
            policy_direction=str(policy._direction),
            policy_finished_bottom_up=bool(policy._finished_bottom_up),
            parent=parent.copy(),
            unexplored=unexplored.copy(),
            frontier=frontier.copy(),
            visited_words=(
                None if visited_words is None else visited_words.copy()
            ),
        )

    def restore(
        self, policy, parent: np.ndarray, unexplored: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Write this snapshot back into live engine state.

        Writes ``parent``, ``unexplored`` and ``policy`` in place;
        returns fresh copies of the frontier and visited mask (so the
        store's copy stays pristine for repeated rollbacks).
        """
        for name, live, saved in (
            ("parent", parent, self.parent),
            ("unexplored", unexplored, self.unexplored),
        ):
            if live.shape != saved.shape:
                raise CheckpointError(
                    f"checkpoint {name} shape {saved.shape} does not match "
                    f"the engine's {live.shape}",
                    level=self.level,
                )
            live[:] = saved
        policy._direction = self.policy_direction
        policy._finished_bottom_up = self.policy_finished_bottom_up
        visited = None if self.visited_words is None else self.visited_words.copy()
        return self.frontier.copy(), visited

    # ---- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the snapshot as a ``.npz`` archive, crash-safely.

        The archive is written to a temporary sibling first, fsynced,
        and moved into place with :func:`os.replace` — an atomic rename
        on the same filesystem.  A crash mid-write therefore leaves
        either the previous checkpoint or none, never a torn archive a
        later rollback would trip over; the temporary name carries the
        pid so it can never shadow a real ``ckpt_level*.npz`` entry (it
        also misses the store's pruning glob by construction).
        """
        meta = {
            "format": _FORMAT,
            "level": self.level,
            "prev_direction": self.prev_direction,
            "policy_direction": self.policy_direction,
            "policy_finished_bottom_up": self.policy_finished_bottom_up,
        }
        arrays = {
            "meta": np.bytes_(json.dumps(meta).encode("utf-8")),
            "parent": self.parent,
            "unexplored": self.unexplored,
            "frontier": self.frontier,
        }
        if self.visited_words is not None:
            arrays["visited_words"] = self.visited_words
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            # Write through an open file object: numpy would otherwise
            # append ``.npz`` to the temporary name, and the fsync needs
            # the descriptor anyway.
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "BFSCheckpoint":
        """Read a snapshot written by :meth:`save`."""
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                if meta.get("format") != _FORMAT:
                    raise CheckpointError(
                        f"{path}: checkpoint format {meta.get('format')!r} "
                        f"is not supported; this version reads format "
                        f"{_FORMAT} only"
                    )
                return cls(
                    level=int(meta["level"]),
                    prev_direction=meta["prev_direction"],
                    policy_direction=meta["policy_direction"],
                    policy_finished_bottom_up=bool(
                        meta["policy_finished_bottom_up"]
                    ),
                    parent=data["parent"],
                    unexplored=data["unexplored"],
                    frontier=data["frontier"],
                    visited_words=(
                        data["visited_words"]
                        if "visited_words" in data.files
                        else None
                    ),
                )
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"{path}: unreadable checkpoint archive: {exc}"
            ) from exc


class CheckpointStore:
    """Protocol: where checkpoints live between capture and rollback."""

    def put(self, ckpt: BFSCheckpoint) -> None:  # pragma: no cover
        """Persist a snapshot, evicting the oldest beyond the keep limit."""
        raise NotImplementedError

    def latest(self) -> BFSCheckpoint | None:  # pragma: no cover
        """Return the most recent snapshot, or None if the store is empty."""
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover
        """Drop every stored snapshot (called at the start of each run)."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-memory store keeping the most recent ``keep`` checkpoints."""

    def __init__(self, keep: int = 2) -> None:
        if keep < 1:
            raise CheckpointError("keep must be >= 1")
        self.keep = keep
        self._ckpts: list[BFSCheckpoint] = []

    def put(self, ckpt: BFSCheckpoint) -> None:
        """Record a snapshot (evicting the oldest past ``keep``)."""
        self._ckpts.append(ckpt)
        del self._ckpts[: -self.keep]

    def latest(self) -> BFSCheckpoint | None:
        """Most recent snapshot, or None when empty."""
        return self._ckpts[-1] if self._ckpts else None

    def clear(self) -> None:
        """Drop everything (a new run starts)."""
        self._ckpts = []

    def __len__(self) -> int:
        return len(self._ckpts)


class DiskCheckpointStore(CheckpointStore):
    """On-disk store: one ``ckpt_level####.npz`` per checkpoint."""

    def __init__(self, directory: str | Path, keep: int = 2) -> None:
        if keep < 1:
            raise CheckpointError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    def _paths(self) -> list[Path]:
        return sorted(self.directory.glob("ckpt_level*.npz"))

    def path_for(self, level: int) -> Path:
        """Where the checkpoint of ``level`` lives."""
        return self.directory / f"ckpt_level{level:05d}.npz"

    def put(self, ckpt: BFSCheckpoint) -> None:
        """Persist a snapshot and prune beyond ``keep``."""
        ckpt.save(self.path_for(ckpt.level))
        paths = self._paths()
        for stale in paths[: -self.keep]:
            stale.unlink(missing_ok=True)

    def latest(self) -> BFSCheckpoint | None:
        """Load the most recent snapshot from disk (None when empty)."""
        paths = self._paths()
        if not paths:
            return None
        return BFSCheckpoint.load(paths[-1])

    def clear(self) -> None:
        """Delete every stored checkpoint."""
        for path in self._paths():
            path.unlink(missing_ok=True)
