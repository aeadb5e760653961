"""LRU caches with hit/miss accounting for the query-session layer.

Deliberately tiny and dependency-free: an ordered-dict LRU whose counters
feed the ``*_cache_hits`` / ``*_cache_misses`` fields of
:class:`repro.engine.stats.EvaluationStats`, so cache effectiveness shows
up in the same reports as the paper's I/O metrics.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

_MISSING = object()


class CacheCounters:
    """Mutable hit/miss/eviction counters of one cache."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"CacheCounters(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables the cache entirely (every lookup misses,
    nothing is stored) — handy for cold-path benchmarking without
    branching at call sites.
    """

    __slots__ = ("capacity", "counters", "_data")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.counters = CacheCounters()
        self._data: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.counters.misses += 1
            return default
        self.counters.hits += 1
        # dicts preserve insertion order; re-inserting marks recency.
        del self._data[key]
        self._data[key] = value
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching the hit/miss counters.

        Recency is still refreshed.  For callers that probe several
        caches for one logical operation and do their own accounting (the
        session's ``lookup`` counts a hit only once both the text's alias
        and its answer are found).
        """
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        del self._data[key]
        self._data[key] = value
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace ``key``, evicting the least recent on overflow."""
        if self.capacity <= 0:
            return
        if key in self._data:
            del self._data[key]
        elif len(self._data) >= self.capacity:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.counters.evictions += 1
        self._data[key] = value

    def items(self) -> list[tuple[Hashable, Any]]:
        """A recency-ordered (oldest first) snapshot of the contents.

        Does not touch counters or recency — used by the warm store to
        persist a cache wholesale.
        """
        return list(self._data.items())

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._data)
        self._data.clear()
        if dropped:
            self.counters.invalidations += 1
        return dropped
