"""Tests for the shared cache-store machinery (``repro.persistence``)."""

import json
import sqlite3
import threading

import pytest

from repro import persistence


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        persistence.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        persistence.atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temporary_files(self, tmp_path):
        path = tmp_path / "out.json"
        persistence.atomic_write_text(path, "x" * 4096)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        persistence.atomic_write_text(path, "ok")
        assert path.read_text() == "ok"


def _key(record):
    return record["key"]


class TestCacheFileEnvelope:
    FMT = "repro-test-cache"

    def _write(self, path, file_format=FMT, version=1, entries=()):
        return persistence.write_cache_file(
            path, file_format, version, list(entries), key_of=_key
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        entries = [{"key": [1, 2], "value": 3.5}]
        assert self._write(path, entries=entries) == 1
        assert persistence.read_cache_entries(path, self.FMT, 1) == entries

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.sqlite"
        assert persistence.read_cache_entries(
            missing, self.FMT, 1, missing_ok=True
        ) is None
        with pytest.raises(FileNotFoundError):
            persistence.read_cache_entries(missing, self.FMT, 1)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.sqlite"
        self._write(path, file_format="something-else")
        with pytest.raises(persistence.WrongFormatError, match="not a repro-test-cache"):
            persistence.read_cache_entries(path, self.FMT, 1)

    def test_unknown_version_rejected(self, tmp_path):
        """A future version-2 store reads as cold, never half-parsed."""
        path = tmp_path / "future.sqlite"
        self._write(path, version=2, entries=[{"key": "k", "new-schema": True}])
        with pytest.warns(persistence.CacheStoreFault, match="unsupported version '2'"):
            assert persistence.read_cache_entries(path, self.FMT, 1) == []

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "unversioned.sqlite"
        self._write(path, entries=[{"key": "k"}])
        with sqlite3.connect(path) as connection:
            connection.execute("DELETE FROM meta WHERE key='version'")
        with pytest.warns(persistence.CacheStoreFault, match="unsupported"):
            assert persistence.read_cache_entries(path, self.FMT, 1) == []

    def test_kind_names_error_messages(self, tmp_path):
        path = tmp_path / "other.sqlite"
        self._write(path, file_format="x")
        with pytest.raises(ValueError, match="not a widget cache file"):
            persistence.read_cache_entries(path, self.FMT, 1, kind="widget cache")


class TestKeyCodecs:
    def test_round_trip_nested_tuples(self):
        key = ((1, 2), ((3, 4), (5, 6)), "name", 7.5)
        encoded = persistence.listify(key)
        assert encoded == [[1, 2], [[3, 4], [5, 6]], "name", 7.5]
        assert persistence.tuplify(json.loads(json.dumps(encoded))) == key

    def test_scalars_pass_through(self):
        assert persistence.listify(3) == 3
        assert persistence.tuplify("abc") == "abc"


class _DictCache:
    """Minimal cache speaking the save/merge protocol, for merge tests."""

    FMT = "repro-test-cache"

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def _records(self):
        return [{"key": k, "value": v} for k, v in self.entries.items()]

    def save(self, path):
        return persistence.write_cache_file(
            path, self.FMT, 1, self._records(), key_of=_key
        )

    def merge_save(self, path):
        return persistence.union_merge_save(
            path, self.FMT, 1, self._records(), _key
        )

    def load(self, path, missing_ok=False):
        records = persistence.read_cache_entries(
            path, self.FMT, 1, missing_ok=missing_ok
        )
        if records is None:
            return 0
        loaded = 0
        for record in records:
            if record["key"] not in self.entries:
                self.entries[record["key"]] = record["value"]
                loaded += 1
        return loaded


class TestMergeLocking:
    def test_merge_save_extends_existing_file(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _DictCache({"a": 1}).save(path)
        assert _DictCache({"b": 2}).merge_save(path) == 2
        merged = _DictCache()
        merged.load(path)
        assert merged.entries == {"a": 1, "b": 2}

    def test_merge_save_prefers_new_records_under_equal_keys(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        _DictCache({"a": 1, "b": 2}).save(path)
        _DictCache({"b": 20, "c": 30}).merge_save(path)
        merged = _DictCache()
        merged.load(path)
        assert merged.entries == {"a": 1, "b": 20, "c": 30}

    def test_merge_save_never_shrinks_to_the_producer(self, tmp_path):
        """The union happens at the store level: a producer holding only a
        few entries must not truncate a store holding many."""
        path = tmp_path / "cache.sqlite"
        _DictCache({f"old-{i}": i for i in range(50)}).save(path)
        _DictCache({"new": 1}).merge_save(path)
        merged = _DictCache()
        assert merged.load(path) == 51

    def test_concurrent_merges_lose_no_entries(self, tmp_path):
        """Concurrent writers sharing one path must never drop each
        other's entries: every merge is one transaction, so the store
        ends with the union."""
        path = tmp_path / "cache.sqlite"
        workers = 8
        barrier = threading.Barrier(workers)
        errors = []

        def merge(index):
            try:
                barrier.wait(timeout=10)
                _DictCache({f"worker-{index}": index}).merge_save(path)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=merge, args=(index,)) for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = _DictCache()
        final.load(path)
        assert final.entries == {f"worker-{i}": i for i in range(workers)}


class TestLegacyStoreGuard:
    """``check_store_path`` refuses only what ``cache migrate`` must read."""

    FMT = "repro-test-cache"

    def test_fresh_and_sqlite_paths_pass(self, tmp_path):
        persistence.check_store_path(tmp_path / "fresh.sqlite")
        path = tmp_path / "cache.sqlite"
        _DictCache({"a": 1}).merge_save(path)
        persistence.check_store_path(path)

    def test_legacy_json_is_refused_even_when_torn(self, tmp_path):
        from legacy_stores import write_legacy_json

        path = write_legacy_json(
            tmp_path / "cache.json", self.FMT, 1, [{"key": "a"}], _key
        )
        path.write_bytes(path.read_bytes()[:-5])
        torn = path.read_bytes()
        with pytest.raises(ValueError, match="repro-design cache migrate"):
            persistence.check_store_path(path)
        assert path.read_bytes() == torn

    def test_any_directory_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="repro-design cache migrate"):
            persistence.check_store_path(tmp_path)

    def test_garbage_passes_to_sqlite_recovery(self, tmp_path):
        """Neither a database nor a repro envelope: SQLite reads it as
        cold and the first write quarantines it."""
        path = tmp_path / "cache.sqlite"
        garbage = b'{"format": "someone-else"} and then noise'
        path.write_bytes(garbage)
        persistence.check_store_path(path)
        with pytest.warns(persistence.CacheStoreFault, match="quarantined"):
            _DictCache({"a": 1}).merge_save(path)
        (quarantined,) = tmp_path.glob("cache.sqlite.quarantine-*")
        assert quarantined.read_bytes() == garbage
        assert _DictCache().load(path) == 1


class TestStoreClasses:
    """The three store classes stay importable where the benchmark's
    tracer wraps their ``read`` and ``union_merge``."""

    def test_tracer_wraps_resolve(self):
        from repro.persistence.sharded import ShardedStore
        from repro.persistence.sqlite import SqliteStore
        from repro.persistence.store import SingleFileStore

        for store in (SingleFileStore, ShardedStore, SqliteStore):
            assert callable(store.read) and callable(store.union_merge)

    @pytest.mark.parametrize("reader", ["SingleFileStore", "ShardedStore"])
    def test_legacy_readers_are_read_only(self, tmp_path, reader):
        store = getattr(persistence, reader)(tmp_path / "legacy")
        with pytest.raises(NotImplementedError, match="read-only"):
            store.union_merge("repro-test-cache", 1, [{"key": "a"}], _key)
        assert list(tmp_path.iterdir()) == []
