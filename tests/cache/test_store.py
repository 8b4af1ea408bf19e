"""Tests for the on-disk compile cache store."""

import hashlib
import pickle

import pytest

from repro.cache.store import CACHE_VERSION, CompileCache, resolve_cache


KEY = "ab" + "0" * 62  # hex-digest-shaped key, shard "ab"
OTHER = "cd" + "1" * 62


def _write_entry(cache, header_fields, body):
    """Write a hand-made entry for ``KEY``: a header line, then ``body``."""

    path = cache._path(KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(" ".join(header_fields).encode() + b"\n" + body)
    return path


def _digest(body):
    return hashlib.sha256(body).hexdigest()


class TestRoundTrip:
    def test_get_miss_returns_default(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.get(KEY, default="sentinel") == "sentinel"
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_put_then_get(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, {"value": 42})
        assert cache.get(KEY) == {"value": 42}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        CompileCache(tmp_path).put(KEY, [1.5, 2.5])
        fresh = CompileCache(tmp_path)
        assert fresh.get(KEY) == [1.5, 2.5]
        assert fresh.stats.hits == 1  # served from disk, not memory

    def test_sharded_layout_and_version_directory(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, "x")
        path = tmp_path / f"v{CACHE_VERSION}" / KEY[:2] / f"{KEY}.pkl"
        assert path.is_file()

    def test_entry_count_and_disk_bytes(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, "x")
        cache.put(OTHER, "y")
        assert cache.entry_count() == 2
        assert cache.disk_bytes() > 0


class TestCorruption:
    def test_garbage_file_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, "good")
        path = tmp_path / f"v{CACHE_VERSION}" / KEY[:2] / f"{KEY}.pkl"
        path.write_bytes(b"this is not a pickle")
        fresh = CompileCache(tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # corrupt entries are evicted from disk

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        body = pickle.dumps("stale")
        _write_entry(
            cache, ["repro-cache", str(CACHE_VERSION - 1), KEY, _digest(body)], body
        )
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        body = pickle.dumps("aliased")
        _write_entry(
            cache, ["repro-cache", str(CACHE_VERSION), OTHER, _digest(body)], body
        )
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 1

    def test_payload_of_wrong_shape_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        # A header without its digest field.
        _write_entry(cache, ["repro-cache", str(CACHE_VERSION), KEY], pickle.dumps("x"))
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 1

    def test_pre_digest_entry_is_a_miss(self, tmp_path):
        """An entry in the previous format (a pickled envelope) reads as a miss."""

        cache = CompileCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"schema": CACHE_VERSION, "key": KEY, "value": 1}))
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 1

    def test_unpicklable_value_with_good_digest_is_a_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        body = b"not a pickle"
        path = _write_entry(
            cache, ["repro-cache", str(CACHE_VERSION), KEY, _digest(body)], body
        )
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()


class TestMemoryTier:
    def test_lru_eviction_counts(self, tmp_path):
        cache = CompileCache(tmp_path, memory_entries=2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, key)
        assert cache.stats.evictions == 1
        # The evicted entry is still served — from disk.
        assert cache.get(keys[0]) == keys[0]

    def test_memory_zero_disables_the_front(self, tmp_path):
        cache = CompileCache(tmp_path, memory_entries=0)
        cache.put(KEY, "x")
        assert cache._memory == {}
        assert cache.get(KEY) == "x"  # disk still answers


class TestClear:
    def test_clear_removes_all_entries(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, "x")
        cache.put(OTHER, "y")
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.get(KEY) is None

    def test_clear_removes_stale_version_directories(self, tmp_path):
        stale = tmp_path / "v0" / "ab"
        stale.mkdir(parents=True)
        (stale / "old.pkl").write_bytes(b"stale")
        cache = CompileCache(tmp_path)
        cache.put(KEY, "x")
        assert cache.clear() == 2
        assert not (tmp_path / "v0").exists()

    def test_clear_on_empty_directory(self, tmp_path):
        assert CompileCache(tmp_path / "never-created").clear() == 0


class TestStats:
    def test_hit_rate(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(KEY, "x")
        cache.get(KEY)
        cache.get(OTHER)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert "hit_rate=50.0%" in cache.stats.describe()


class TestResolveCache:
    def test_none_passes_through(self):
        assert resolve_cache(None) is None

    def test_instance_passes_through(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_path_builds_a_store(self, tmp_path):
        cache = resolve_cache(tmp_path / "cache")
        assert isinstance(cache, CompileCache)
        cache.put(KEY, "x")
        assert cache.get(KEY) == "x"


class TestConcurrentClearVsReaders:
    """``clear`` racing readers yields misses, never crashes (PR-5 satellite)."""

    def test_reader_misses_after_entry_vanishes(self, tmp_path):
        store = CompileCache(tmp_path, memory_entries=0)
        key = "ab" + "0" * 62
        store.put(key, {"v": 1})
        # Simulate the race: the entry disappears between put and get.
        CompileCache(tmp_path).clear()
        assert store.get(key) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_maintenance_queries_survive_concurrent_clear(self, tmp_path):
        import threading

        store = CompileCache(tmp_path, memory_entries=0)
        for i in range(64):
            store.put(f"{i:02x}" + "0" * 62, {"v": i})
        clearer = CompileCache(tmp_path)
        errors = []

        def clear_loop():
            try:
                for _ in range(5):
                    clearer.clear()
            except Exception as exc:  # pragma: no cover - the failure we test for
                errors.append(exc)

        def read_loop():
            try:
                for i in range(200):
                    store.get(f"{i % 64:02x}" + "0" * 62)
                    store.entry_count()
                    store.disk_bytes()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=clear_loop)] + [
            threading.Thread(target=read_loop) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []

    def test_put_during_clear_never_raises(self, tmp_path):
        import threading

        store = CompileCache(tmp_path)
        clearer = CompileCache(tmp_path)
        errors = []

        def put_loop():
            try:
                for i in range(200):
                    store.put(f"{i % 16:02x}" + "1" * 62, {"v": i})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def clear_loop():
            try:
                for _ in range(5):
                    clearer.clear()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=put_loop), threading.Thread(target=clear_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []

    def test_shared_instance_is_thread_safe(self, tmp_path):
        """One store instance shared by threads (the compile server's event
        loop + dispatch thread): memory LRU and stats stay consistent."""

        import threading

        store = CompileCache(tmp_path, memory_entries=8)
        errors = []

        def hammer(base):
            try:
                for i in range(300):
                    key = f"{(base + i) % 32:02x}" + "2" * 62
                    if store.get(key) is None:
                        store.put(key, {"v": key})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i * 7,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        assert store.stats.lookups == 1200
        assert len(store._memory) <= 8
