"""Thread-safe LRU cache with hit/miss/eviction accounting.

One cache class backs every keyed cache in the system: the engine's
module-level compilation caches (:mod:`repro.engine.compiled`) and the
per-service caches the :class:`~repro.service.AuctionService` injects so
its capacity and eviction counters are isolated from other services in
the process.  ``capacity=0`` disables storage entirely — every lookup is
a miss and nothing is retained — which is how the benchmark's
"no-cache" baseline configuration is expressed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters.

    ``get`` refreshes recency; ``put`` evicts the stalest entries once
    ``capacity`` is exceeded.  All operations hold one re-entrant lock, so
    the cache can be shared across threads (the service's dispatcher
    and its callers).
    ``get_or_create`` runs its factory *outside* the lock (compilation can
    take milliseconds), once per key: concurrent callers of one key wait
    for the first caller's build.
    """

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()  #: guarded-by: _lock
        self._pending: dict[Hashable, threading.Event] = {}  #: guarded-by: _lock
        self._lock = threading.RLock()
        self._hits = 0  #: guarded-by: _lock
        self._misses = 0  #: guarded-by: _lock
        self._evictions = 0  #: guarded-by: _lock

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Fetch ``key``, building it via ``factory`` on a miss.

        The factory runs unlocked, and once per key however many threads
        ask at the same time: a thread that misses while another builds
        the key waits for that build and takes its value as a hit (two
        pool lanes on one truthful profile prepare it once).  When the
        build raises or stores nothing, a waiter builds for itself; with
        ``capacity=0`` every caller builds its own.  A factory must not
        ask its own cache for the key it is building.
        """
        while True:
            with self._lock:
                if key in self._data:
                    self._hits += 1
                    self._data.move_to_end(key)
                    return self._data[key]
                pending = self._pending.get(key)
                if pending is None:
                    self._misses += 1
                    if self.capacity:
                        pending = self._pending[key] = threading.Event()
                    break
            pending.wait()
        if pending is None:  # capacity 0: nothing is stored to share
            return factory()
        try:
            value = factory()
            with self._lock:
                self._data[key] = value
                while len(self._data) > self.capacity:
                    self._data.popitem(last=False)
                    self._evictions += 1
            return value
        finally:
            with self._lock:
                del self._pending[key]
            pending.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = self._misses = self._evictions = 0

    def stats(self) -> dict[str, Any]:
        """Counters snapshot: hits, misses, evictions, size, capacity, hit_rate."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._data),
                "capacity": self.capacity,
                "hit_rate": self._hits / total if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        label = f" {self.name!r}" if self.name else ""
        return (
            f"LRUCache({label} size={s['size']}/{s['capacity']} "
            f"hits={s['hits']} misses={s['misses']} evictions={s['evictions']})"
        )
