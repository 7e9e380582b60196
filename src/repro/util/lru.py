"""Thread-safe LRU cache bounded by entry count and estimated bytes.

One data structure backs both caches of the serving stack: the
result cache (:class:`~repro.serve.scheduler.ResultCache`, completed
BFS answers) and the prepared-graph cache
(:class:`~repro.core.prepared.PreparedGraphCache`, partition state).
Each entry's resident size is estimated once, at :meth:`LRUCache.put`,
by the ``sizeof`` callable the owner supplies.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["LRUCache"]


class LRUCache:
    """Least-recently-used map with hit/miss counters.

    ``maxsize`` bounds the entry count and ``max_bytes`` (optional)
    the summed ``sizeof`` estimates; a put evicts least-recently-used
    entries past either bound, but the byte bound always keeps at least
    one entry.  ``ttl_s`` (optional) declares when an entry stops being
    fresh: :meth:`get` then treats older entries as misses, while
    :meth:`get_stale` still serves them, explicitly marked, up to its
    ``max_age_s``.  ``name`` prefixes validation messages.
    """

    def __init__(
        self,
        maxsize: int,
        max_bytes: int | None = None,
        ttl_s: float | None = None,
        clock=time.monotonic,
        sizeof=lambda value: 0,
        name: str = "cache",
    ) -> None:
        if maxsize < 1:
            raise ConfigError(f"{name} needs maxsize >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(f"{name} max_bytes must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigError(f"{name} ttl_s must be positive")
        self.maxsize = int(maxsize)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.clock = clock
        self.sizeof = sizeof
        self._lock = threading.Lock()
        #: key -> (value, stored_at, estimated nbytes)
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0

    def get(self, key):
        """The cached *fresh* value for ``key``, or ``None`` (a miss).

        With a ``ttl_s`` configured, entries older than it count as
        misses here but stay resident for :meth:`get_stale`.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (
                self.ttl_s is not None
                and self.clock() - entry[1] > self.ttl_s
            ):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def get_stale(self, key, max_age_s: float | None = None):
        """A possibly-stale value for ``key``.

        Returns ``(value, age_s, stale)`` — ``stale`` is True when the
        entry is past its ``ttl_s`` — or ``None`` when the key is
        absent or older than ``max_age_s``.  Counts ``stale_hits`` when
        an expired entry is served.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            age = max(0.0, self.clock() - entry[1])
            if max_age_s is not None and age > max_age_s:
                return None
            stale = self.ttl_s is not None and age > self.ttl_s
            if stale:
                self.stale_hits += 1
            self._entries.move_to_end(key)
            return entry[0], age, stale

    def put(self, key, value) -> None:
        """Insert ``value`` as most recently used, evicting past the
        entry-count and (when configured) byte bounds."""
        nbytes = int(self.sizeof(value))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[key] = (value, self.clock(), nbytes)
            self._bytes += nbytes
            while len(self._entries) > self.maxsize or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                _, (_, _, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted

    def invalidate(self, key) -> bool:
        """Drop one entry; True when it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[2]
            return True

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = self.misses = self.stale_hits = 0

    def stats(self) -> dict:
        """Hit/miss counters and occupancy as a plain dict.

        ``hit_rate`` is 0.0 (not a division error) before the first
        lookup; ``lookups`` carries the denominator so readers can tell
        "no traffic yet" from "all misses".
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "lookups": total,
                "hit_rate": self.hits / total if total else 0.0,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
                "stale_hits": self.stale_hits,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
