"""Generation-aware LRU cache for phase-1 retrieval results.

Repeated queries are the norm at repository scale: a user pages through
results (same analyzed terms, same candidate pool, a different offset —
the engine re-runs phase 1 identically every page), dashboards poll the
same saved searches, and the benchmark harness replays query sets.  The
cache makes all of these near-free.

Invalidation is by *generation*: every cache key embeds the
:attr:`~repro.index.inverted.InvertedIndex.generation` the result was
computed at, so a key built after the indexer refreshes simply cannot
hit an entry computed before it.  Stale entries need no eager purge for
correctness — they are unreachable — but :meth:`evict_stale` drops them
in one sweep so a churning index does not waste capacity on dead keys.
The engine's finished-page result cache is a second instance whose keys
end in a wider stamp (generation, schema-source version, ensemble
weights) in the same position.

Phase-1 values are lists of frozen
:class:`~repro.index.searcher.IndexHit` objects; :meth:`get` hands back
a fresh list each time so a caller that mutates its result list cannot
corrupt the cached one.  Any other value (the result cache's frozen
page records) is stored and returned as is.

The cache is shared between concurrent searches (the HTTP service runs
one engine) and the background indexer's ``evict_stale`` sweeps, so
every operation runs under one lock — an ``OrderedDict``'s
``move_to_end`` + ``popitem`` pair is not atomic under free-threaded
interleavings, and the hit/miss counters feed the telemetry gauges.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Sequence

#: A cache key: (analyzed terms, top_n, index generation).
QueryKey = tuple[tuple[str, ...], int, int]


class QueryCache:
    """LRU map from (terms, top_n, generation) to ranked hits."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stale_evictions = 0

    @staticmethod
    def make_key(terms: Sequence[str], top_n: int,
                 generation: int) -> QueryKey:
        return (tuple(terms), top_n, generation)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    @property
    def evictions(self) -> int:
        """Entries dropped to stay within capacity (LRU overflow)."""
        with self._lock:
            return self._evictions

    @property
    def stale_evictions(self) -> int:
        """Entries dropped by :meth:`evict_stale` generation sweeps."""
        with self._lock:
            return self._stale_evictions

    def get(self, key: Hashable):
        """The cached value for ``key`` (a list comes back as a fresh
        list), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return list(entry) if isinstance(entry, list) else entry

    def put(self, key: Hashable, value) -> None:
        """Store a value (a sequence is copied into a list), evicting the
        least recently used overflow."""
        if isinstance(value, (list, tuple)):
            value = list(value)
        with self._lock:
            entries = self._entries
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self._capacity:
                entries.popitem(last=False)
                self._evictions += 1

    def evict_stale(self, generation: Hashable) -> int:
        """Drop entries keyed to any generation (or stamp) but
        ``generation``.

        Returns the number of entries removed.  Purely a capacity
        optimization — stale keys can never be looked up again.
        """
        with self._lock:
            dead = [key for key in self._entries
                    if isinstance(key, tuple) and len(key) == 3
                    and key[2] != generation]
            for key in dead:
                del self._entries[key]
            self._stale_evictions += len(dead)
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries
