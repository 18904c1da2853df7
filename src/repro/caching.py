"""A small bounded LRU used by the library's memoisation layers.

The profile cache (:mod:`repro.cq.evaluation`), the plan cache
(:mod:`repro.eval.planner`) and the per-context solved-result cache
(:mod:`repro.eval.executor`) all want the same thing: a dict with
recency-ordered eviction at a fixed bound, hit/miss counters, and an
explicit clear.  Keeping one implementation here keeps the eviction
semantics (evict the least recently *used* entry once the bound is
reached) identical everywhere.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar

Key = TypeVar("Key")
Value = TypeVar("Value")


class BoundedLRU(Generic[Key, Value]):
    """A mapping with least-recently-used eviction at a fixed capacity.

    ``get`` refreshes recency (``get_many`` does so for a whole batch of
    keys under one lock acquisition); ``put`` inserts (evicting the
    coldest entry when full) and refreshes recency on overwrite.  Only
    the lookups count into ``hits``/``misses``, so the counters reflect
    lookup traffic, not insertions.

    All operations are thread-safe: the query-service front-end, its
    monitor thread and the shared-store L1 all touch these caches from
    more than one thread.  The lock is re-entrant because
    ``get_or_put`` nests ``get``/``put`` and a ``factory`` may touch
    the cache it is populating.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[Key, Value]" = OrderedDict()
        self._mutex = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Key) -> Optional[Value]:
        """Return the cached value (refreshing recency) or None."""
        with self._mutex:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """``[self.get(key) for key in keys]`` under one lock acquisition.

        Each key refreshes recency and counts exactly as ``get`` would,
        in order.
        """
        with self._mutex:
            lookup = self._entries.get
            refresh = self._entries.move_to_end
            values = []
            hits = 0
            for key in keys:
                value = lookup(key)
                if value is not None:
                    refresh(key)
                    hits += 1
                values.append(value)
            self.hits += hits
            self.misses += len(values) - hits
            return values

    def peek(self, key: Key) -> Optional[Value]:
        """Return the cached value without touching recency or counters."""
        with self._mutex:
            return self._entries.get(key)

    def put(self, key: Key, value: Value) -> None:
        """Insert a value, evicting the least recently used entry if full."""
        with self._mutex:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
            self._entries[key] = value

    def get_or_put(self, key: Key, factory: Callable[[], Value]) -> Value:
        """Return the cached value, computing and inserting it on a miss.

        The lookup/compute/insert idiom of every memoisation layer in
        one place; counts exactly like a ``get`` followed by a ``put``.
        ``factory`` must not return None (None encodes a miss).
        """
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._mutex:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> Dict[str, int]:
        """Return hit/miss/size counters."""
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
            }

    def keys(self) -> "list[Key]":
        """A stable snapshot of the keys, oldest (coldest) first."""
        with self._mutex:
            return list(self._entries)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        with self._mutex:
            return key in self._entries

    def __iter__(self) -> Iterator[Key]:
        return iter(self.keys())
