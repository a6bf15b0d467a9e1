"""Fault-injection and multi-process stress tests for the cache stores.

The SQLite store has one recovery contract: any *persisted-state*
fault — torn, truncated, or garbage files, a wrong schema version —
must degrade the damaged state to "cold" with a
:class:`CacheStoreFault` warning, never crash, and never silently
destroy bytes (unreadable state is quarantined, not overwritten).
Misconfiguration — pointing one cache kind at another kind's store — is
the deliberate exception: that still fails loud.

The legacy sharded reader, a ``cache migrate`` source, keeps the same
contract per shard: a damaged shard reads as cold and spares its peers.

The stress test spawns real *processes* hammering one store with
overlapping union merges, and requires the exact union at the end.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from legacy_stores import shard_of, write_legacy_sharded
from repro import persistence
from repro.persistence import ShardedStore

FMT = "repro-test-cache"


def _key_of(record):
    return record["key"]


def _records(*keys):
    return [{"key": key, "value": f"value-of-{key}"} for key in keys]


def _merge(path, *keys):
    return persistence.union_merge_save(path, FMT, 1, _records(*keys), _key_of)


def _read_keys(path, **kwargs):
    records = persistence.read_cache_entries(path, FMT, 1, **kwargs)
    return sorted(record["key"] for record in records or [])


def _read_sharded_keys(root):
    return sorted(record["key"] for record in ShardedStore(root).read(FMT, 1))


def _shard_file(root, key):
    return Path(root) / shard_of(key) / "entries.json"


@pytest.fixture
def sharded(tmp_path):
    """A legacy sharded store: its root and three distinct keys."""
    root = tmp_path / "store"
    keys = ["alpha", "bravo", "charlie"]
    shards = {shard_of(key) for key in keys}
    assert len(shards) == 3, "fixture keys must land in distinct shards"
    write_legacy_sharded(root, FMT, 1, _records(*keys), _key_of)
    return root, keys


class TestShardedFaults:
    def test_garbage_shard_degrades_to_cold_and_spares_peers(self, sharded):
        root, keys = sharded
        _shard_file(root, keys[0]).write_bytes(b"\x00garbage\xff")
        with pytest.warns(persistence.CacheStoreFault, match="as cold"):
            assert _read_sharded_keys(root) == sorted(keys[1:])

    def test_truncated_shard_degrades_to_cold(self, sharded):
        root, keys = sharded
        shard = _shard_file(root, keys[1])
        torn = shard.read_bytes()[: len(shard.read_bytes()) // 2]
        shard.write_bytes(torn)
        with pytest.warns(persistence.CacheStoreFault):
            assert keys[1] not in _read_sharded_keys(root)
            assert keys[0] in _read_sharded_keys(root)

    def test_crash_leftover_temp_files_are_ignored(self, sharded):
        """A writer killed between temp-write and ``os.replace`` left an
        ``entries.json.*.tmp`` orphan; readers must not even warn."""
        root, keys = sharded
        shard = _shard_file(root, keys[0])
        (shard.parent / "entries.json.abc123.tmp").write_text('{"half": ')
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_sharded_keys(root) == sorted(keys)

    def test_wrong_version_shard_degrades_to_cold(self, sharded):
        root, keys = sharded
        shard = _shard_file(root, keys[2])
        shard.write_text(json.dumps(
            {"format": FMT, "version": 99, "entries": _records(keys[2])}
        ))
        with pytest.warns(persistence.CacheStoreFault, match="version 99"):
            assert _read_sharded_keys(root) == sorted(keys[:2])

    def test_mixed_version_store_reads_current_shards(self, sharded):
        """v1 and v99 shards side by side: the store serves the v1 subset."""
        root, keys = sharded
        for stale in keys[:2]:
            shard = _shard_file(root, stale)
            shard.write_text(json.dumps(
                {"format": FMT, "version": 99, "entries": _records(stale)}
            ))
        with pytest.warns(persistence.CacheStoreFault):
            assert _read_sharded_keys(root) == [keys[2]]

    def test_wrong_format_still_fails_loud(self, sharded):
        """Misconfiguration is not corruption: another repro cache kind's
        shard must raise, not be silently treated as cold."""
        root, keys = sharded
        shard = _shard_file(root, keys[0])
        shard.write_text(json.dumps(
            {"format": "repro-routing-cache", "version": 1, "entries": []}
        ))
        with pytest.raises(ValueError, match="not a repro-test-cache"):
            ShardedStore(root).read(FMT, 1)

    def test_missing_store_semantics(self, tmp_path):
        root = tmp_path / "nope"
        assert ShardedStore(root).read(FMT, 1, missing_ok=True) is None
        with pytest.raises(FileNotFoundError):
            ShardedStore(root).read(FMT, 1)

    def test_faults_are_recorded_on_the_store(self, sharded):
        root, keys = sharded
        _shard_file(root, keys[0]).write_bytes(b"junk")
        store = ShardedStore(root)
        with pytest.warns(persistence.CacheStoreFault):
            store.read(FMT, 1)
        assert len(store.faults) == 1
        assert "cold" in store.faults[0]


@pytest.fixture
def sqlite_store(tmp_path):
    path = tmp_path / "cache.sqlite"
    _merge(path, "alpha", "bravo", "charlie")
    return path


class TestSqliteFaults:
    def test_garbage_file_degrades_to_cold(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"\x00\x01\x02 this is not a database \xff" * 8)
        with pytest.warns(persistence.CacheStoreFault, match="as cold"):
            assert persistence.read_cache_entries(path, FMT, 1) == []

    def test_merge_quarantines_garbage_then_starts_fresh(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        original = b"\x00\x01\x02 this is not a database \xff" * 8
        path.write_bytes(original)
        with pytest.warns(persistence.CacheStoreFault, match="quarantined"):
            _merge(path, "fresh")
        assert _read_keys(path) == ["fresh"]
        quarantined = list(tmp_path.glob("garbage.sqlite.quarantine-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == original

    def test_truncated_database_degrades_to_cold(self, sqlite_store):
        # Populate enough rows to span multiple pages, then tear the file.
        _merge(sqlite_store, *[f"bulk-{i}" for i in range(200)])
        data = sqlite_store.read_bytes()
        assert len(data) > 4096
        sqlite_store.write_bytes(data[: 4096 + 512])
        with pytest.warns(persistence.CacheStoreFault, match="as cold"):
            assert persistence.read_cache_entries(sqlite_store, FMT, 1) == []

    def test_wrong_version_reads_cold(self, sqlite_store):
        with sqlite3.connect(sqlite_store) as connection:
            connection.execute(
                "UPDATE meta SET value='99' WHERE key='version'"
            )
        with pytest.warns(persistence.CacheStoreFault, match="version '99'"):
            assert persistence.read_cache_entries(sqlite_store, FMT, 1) == []

    def test_wrong_version_merge_quarantines_not_relabels(self, sqlite_store, tmp_path):
        """Upserting on top of a wrong-version database would relabel its
        stale rows as current-version entries; the writer must quarantine
        the file and start fresh instead."""
        with sqlite3.connect(sqlite_store) as connection:
            connection.execute(
                "UPDATE meta SET value='99' WHERE key='version'"
            )
        with pytest.warns(persistence.CacheStoreFault, match="quarantined"):
            _merge(sqlite_store, "fresh")
        assert _read_keys(sqlite_store) == ["fresh"]
        quarantined = list(tmp_path.glob("cache.sqlite.quarantine-*"))
        assert len(quarantined) == 1
        with sqlite3.connect(quarantined[0]) as connection:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
        assert meta["version"] == "99"  # stale bytes preserved verbatim

    def test_wrong_format_still_fails_loud(self, sqlite_store):
        with pytest.raises(ValueError, match="not a widget cache file"):
            persistence.read_cache_entries(
                sqlite_store, "repro-other-cache", 1, kind="widget cache"
            )

    def test_foreign_database_fails_loud(self, tmp_path):
        path = tmp_path / "foreign.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE unrelated (x INTEGER)")
        with pytest.raises(ValueError, match="not a repro-test-cache"):
            persistence.read_cache_entries(path, FMT, 1)

    def test_missing_store_semantics(self, tmp_path):
        path = tmp_path / "nope.sqlite"
        assert persistence.read_cache_entries(path, FMT, 1, missing_ok=True) is None
        with pytest.raises(FileNotFoundError):
            persistence.read_cache_entries(path, FMT, 1)


class TestImageWritesNeedKeys:
    """An image write cannot build its primary keys without ``key_of``."""

    def test_replace_requires_key_of(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with pytest.raises(ValueError, match="key_of"):
            persistence.write_cache_file(path, FMT, 1, _records("a"))
        assert not path.exists()


# ---------------------------------------------------------------------------
# Multi-process stress: real processes, overlapping merge batches, and the
# exact union at the end.  The value of every key is a pure function of the
# key, so overlapping writers always agree and the expected final store is
# fully determined.
# ---------------------------------------------------------------------------

_STRESS_WORKERS = 4
_STRESS_BATCHES = 3
_STRESS_SPAN = 10  # keys per worker; stride 5 => every worker overlaps peers

_STRESS_SCRIPT = """
import sys
from repro import persistence

path, start = sys.argv[1], int(sys.argv[2])
for batch in range({batches}):
    records = [
        {{"key": "k%03d" % index, "value": "value-of-k%03d" % index}}
        for index in range(start, start + {span})
    ]
    persistence.union_merge_save(
        path, "{fmt}", 1, records, lambda record: record["key"]
    )
""".format(batches=_STRESS_BATCHES, span=_STRESS_SPAN, fmt=FMT)


def test_multiprocess_union_merge_loses_no_updates(tmp_path):
    path = str(tmp_path / "stress.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _STRESS_SCRIPT, path, str(index * 5)],
            env=env,
            stderr=subprocess.PIPE,
        )
        for index in range(_STRESS_WORKERS)
    ]
    failures = []
    for worker in workers:
        _, stderr = worker.communicate(timeout=120)
        if worker.returncode != 0:
            failures.append(stderr.decode())
    assert not failures, "stress workers crashed:\n" + "\n".join(failures)

    expected = {
        "k%03d" % index
        for start in range(0, _STRESS_WORKERS * 5, 5)
        for index in range(start, start + _STRESS_SPAN)
    }
    records = persistence.read_cache_entries(path, FMT, 1)
    assert {record["key"] for record in records} == expected
    for record in records:
        assert record["value"] == f"value-of-{record['key']}"

    # No partial state left behind: only the database itself remains
    # (no journal, nothing quarantined).
    assert [child.name for child in tmp_path.iterdir()] == ["stress.sqlite"]
