"""The shared LRU behind the result and prepared-graph caches, checked
against a plain dict-plus-order model."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import ConfigError
from repro.util.lru import LRUCache

class _Model:
    """The LRU's contract, spelled out with a dict and a recency list."""

    def __init__(self, maxsize, max_bytes, ttl_s):
        self.maxsize, self.max_bytes, self.ttl_s = maxsize, max_bytes, ttl_s
        self.now = 0.0
        self.entries = {}  # key -> (value, stored_at, nbytes)
        self.order = []  # least recently used first
        self.hits = self.misses = self.stale_hits = 0

    def _touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    def _age(self, key):
        return max(0.0, self.now - self.entries[key][1])

    def _expired(self, key):
        return self.ttl_s is not None and self._age(key) > self.ttl_s

    def get(self, key):
        if key not in self.entries or self._expired(key):
            self.misses += 1
            return None
        self._touch(key)
        self.hits += 1
        return self.entries[key][0]

    def get_stale(self, key, max_age_s):
        if key not in self.entries:
            return None
        age = self._age(key)
        if max_age_s is not None and age > max_age_s:
            return None
        stale = self._expired(key)
        self.stale_hits += stale
        self._touch(key)
        return self.entries[key][0], age, stale

    def put(self, key, value, nbytes):
        if key in self.entries:
            self.order.remove(key)
        self.entries[key] = (value, self.now, nbytes)
        self.order.append(key)
        while len(self.order) > self.maxsize or (
            self.max_bytes is not None
            and self.nbytes > self.max_bytes
            and len(self.order) > 1
        ):
            del self.entries[self.order.pop(0)]

    def invalidate(self, key):
        if key not in self.entries:
            return False
        del self.entries[key]
        self.order.remove(key)
        return True

    @property
    def nbytes(self):
        return sum(e[2] for e in self.entries.values())


_KEYS = st.integers(0, 2)


class LRUAgainstModel(RuleBasedStateMachine):
    """Drawn put / get / get_stale / invalidate / clock steps; after
    each one the cache and the model agree on every answer, counter
    and occupancy figure, and the bounds hold."""

    @initialize(
        maxsize=st.integers(1, 3),
        max_bytes=st.one_of(st.none(), st.integers(1, 160)),
        ttl_s=st.one_of(st.none(), st.sampled_from([0.5, 1.0])),
    )
    def setup(self, maxsize, max_bytes, ttl_s):
        self.model = _Model(maxsize, max_bytes, ttl_s)
        self.cache = LRUCache(
            maxsize, max_bytes, ttl_s,
            clock=lambda: self.model.now, sizeof=lambda value: value[1],
        )
        self.serial = 0

    @rule(key=_KEYS, nbytes=st.integers(0, 80))
    def put(self, key, nbytes):
        self.serial += 1
        value = (self.serial, nbytes)
        self.cache.put(key, value)
        self.model.put(key, value, nbytes)

    @rule(key=_KEYS)
    def get(self, key):
        assert self.cache.get(key) == self.model.get(key)

    @rule(key=_KEYS, max_age_s=st.sampled_from([None, 1.0, 4.0]))
    def get_stale(self, key, max_age_s):
        assert self.cache.get_stale(key, max_age_s) == self.model.get_stale(
            key, max_age_s
        )

    @rule(key=_KEYS)
    def invalidate(self, key):
        assert self.cache.invalidate(key) == self.model.invalidate(key)

    @rule(dt=st.sampled_from([0.5, 1.0, 2.0]))
    def tick(self, dt):
        self.model.now += dt

    @invariant()
    def agrees_and_bounded(self):
        model, stats = self.model, self.cache.stats()
        assert stats["entries"] == len(self.cache) == len(model.entries)
        assert stats["bytes"] == model.nbytes
        assert (stats["hits"], stats["misses"], stats["stale_hits"]) == (
            model.hits, model.misses, model.stale_hits,
        )
        assert stats["lookups"] == model.hits + model.misses
        # The bounds themselves, independent of the model.
        assert stats["entries"] <= model.maxsize
        if model.max_bytes is not None and stats["bytes"] > model.max_bytes:
            assert stats["entries"] == 1


TestLRUAgainstModel = LRUAgainstModel.TestCase
TestLRUAgainstModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_clear_resets_entries_and_counters():
    cache = LRUCache(4, sizeof=lambda value: 10)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    cache.clear()
    stats = cache.stats()
    assert (stats["entries"], stats["bytes"], stats["lookups"]) == (0, 0, 0)


@pytest.mark.parametrize(
    "kwargs", [{"maxsize": 0}, {"max_bytes": 0}, {"ttl_s": 0.0}]
)
def test_validation_names_the_cache(kwargs):
    with pytest.raises(ConfigError, match="^demo cache"):
        LRUCache(**{"maxsize": 1, **kwargs}, name="demo cache")
