"""LRU cache semantics: recency, eviction accounting, disabled mode."""

from __future__ import annotations

import threading
import time

import pytest

from repro.util.lru import LRUCache


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=-1) == -1

    def test_least_recently_used_evicted_first(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now stalest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_eviction_counter(self):
        cache = LRUCache(2)
        for i in range(5):
            cache.put(i, i)
        stats = cache.stats()
        assert stats["evictions"] == 3
        assert stats["size"] == 2
        assert len(cache) == 2

    def test_put_existing_key_refreshes_not_evicts(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update, no eviction
        assert cache.stats()["evictions"] == 0
        assert cache.get("a") == 10

    def test_capacity_zero_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        built = []

        def factory():
            built.append(1)
            return "value"

        assert cache.get_or_create("k", factory) == "value"
        assert cache.get_or_create("k", factory) == "value"
        assert len(built) == 2  # nothing retained, factory re-runs
        assert len(cache) == 0

    def test_get_or_create_caches_and_counts(self):
        cache = LRUCache(4)
        built = []

        def factory():
            built.append(1)
            return object()

        first = cache.get_or_create("k", factory)
        second = cache.get_or_create("k", factory)
        assert first is second
        assert len(built) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_concurrent_misses_share_one_build(self):
        cache = LRUCache(4)
        built = []

        def factory():
            built.append(threading.get_ident())
            time.sleep(0.2)  # the second caller arrives mid-build
            return object()

        values = []
        threads = [
            threading.Thread(target=lambda: values.append(cache.get_or_create("k", factory)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(built) == 1
        assert values[0] is values[1]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_failed_build_leaves_the_waiter_to_build(self):
        cache = LRUCache(4)
        started = threading.Event()

        def failing():
            started.set()
            time.sleep(0.2)
            raise RuntimeError("build failed")

        errors = []

        def first():
            try:
                cache.get_or_create("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=first)
        thread.start()
        started.wait()
        assert cache.get_or_create("k", lambda: "second") == "second"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert cache.get("k") == "second"

    def test_single_flight_stress(self):
        """Many threads, few keys, a tiny switch interval: each key is
        built exactly once and every call is counted once."""
        import sys

        cache = LRUCache(16)
        built = []
        lock = threading.Lock()

        def factory(key):
            with lock:
                built.append(key)
            return key

        def worker():
            for i in range(300):
                key = i % 5
                assert cache.get_or_create(key, lambda: factory(key)) == key

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == list(range(5))
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300
        assert stats["misses"] == 5

    def test_clear_resets_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_thread_safety_smoke(self):
        cache = LRUCache(16)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    cache.put((base, i % 20), i)
                    cache.get((base, (i + 1) % 20))
                    cache.get_or_create((base, "x"), lambda: base)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
