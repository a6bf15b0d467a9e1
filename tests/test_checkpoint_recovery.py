"""Torn-checkpoint recovery and failure-record round trips.

A sweep checkpoint torn at the tail — the signature of an interrupted
copy or a full disk — must not crash ``--resume``.  A tear shorter than
one SQLite page can leave every record readable; a tear of a page or
more reads as cold with a :class:`CacheStoreFault` warning, the next
recording quarantines the damaged file beside the store, and the lost
tasks recompute.  Recognizable *misconfiguration* (a different cache
kind's store at the path) keeps failing loud.
"""

import sqlite3

import pytest

from repro import persistence
from repro.evaluation.checkpoint import SweepCheckpoint
from repro.mapping.engine import RoutingCache
from repro.persistence import CacheStoreFault, WrongFormatError
from repro.runtime.metrics import global_metrics

#: SQLite's default page size.  Tearing a whole page off a checkpoint
#: leaves it unreadable; a shorter tear can leave it readable.
PAGE = 4096


def _failure(key, benchmark="sym6_145"):
    return {
        "task": "point", "key": key, "benchmark": benchmark,
        "config": "eff-full", "arch_index": 2, "attempts": 3,
        "failures": [
            {"reason": "crash", "detail": "worker exited with code -9",
             "attempt": 0, "backend": None},
        ],
    }


def _seeded_checkpoint(path, keys=("k1", "k2", "k3")):
    checkpoint = SweepCheckpoint(str(path))
    for key in keys:
        checkpoint.record_failure(_failure(key))
    return checkpoint


def test_failure_records_round_trip(tmp_path):
    path = tmp_path / "ck.sqlite"
    _seeded_checkpoint(path)
    reloaded = SweepCheckpoint(str(path))
    assert reloaded.load() == 3
    assert reloaded.recorded_failures == 3
    assert [record["key"] for record in reloaded.failures()] == ["k1", "k2", "k3"]
    assert reloaded.failures()[0] == _failure("k1")
    # Failure records never satisfy resume lookups.
    assert reloaded.completed_points == 0
    assert reloaded.completed_generations == 0
    assert reloaded.point("k1") is None
    assert reloaded.generation_rows("k1") is None


@pytest.mark.parametrize("tear", [40, 100, 1000])
def test_tear_shorter_than_a_page_still_reads_every_record(tmp_path, tear):
    path = tmp_path / "ck.sqlite"
    _seeded_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-tear])
    assert SweepCheckpoint(str(path)).load() == 3


@pytest.mark.parametrize("tear", [16, 1000])
def test_recording_into_a_short_file_quarantines_it(tmp_path, tear):
    """A file shorter than its header's page count is not written into.

    The torn tail can hold the ``entries`` primary-key index, after which
    an upsert no longer finds the existing key and duplicates it.
    """
    path = tmp_path / "ck.sqlite"
    _seeded_checkpoint(path)
    torn = path.read_bytes()[:-tear]
    path.write_bytes(torn)

    checkpoint = SweepCheckpoint(str(path))
    with pytest.warns(CacheStoreFault, match="shorter than its"):
        checkpoint.record_failure(_failure("k1"))
    checkpoint.record_failure(_failure("k4"))

    connection = sqlite3.connect(str(path))
    try:
        keys = [row[0] for row in connection.execute("SELECT key FROM entries")]
    finally:
        connection.close()
    assert len(keys) == len(set(keys)) == 2
    quarantine = list(tmp_path.glob("ck.sqlite.quarantine-*"))
    assert len(quarantine) == 1
    assert quarantine[0].read_bytes() == torn


def test_torn_checkpoint_reads_cold_and_is_quarantined(tmp_path):
    path = tmp_path / "ck.sqlite"
    _seeded_checkpoint(path)
    torn = path.read_bytes()[:-PAGE]
    path.write_bytes(torn)

    before = global_metrics().snapshot()["counters"].get(
        "persistence/store_faults", 0
    )
    reloaded = SweepCheckpoint(str(path))
    with pytest.warns(CacheStoreFault, match="as cold"):
        assert reloaded.load() == 0
    assert path.read_bytes() == torn  # reading never moves the file

    # The next recording quarantines the damaged file, original bytes
    # preserved for forensics, and starts a fresh store.
    with pytest.warns(CacheStoreFault, match="quarantined"):
        reloaded.record_failure(_failure("k9"))
    quarantine = list(tmp_path.glob("ck.sqlite.quarantine-*"))
    assert len(quarantine) == 1
    assert quarantine[0].read_bytes() == torn
    after = global_metrics().snapshot()["counters"]["persistence/store_faults"]
    assert after == before + 2

    fresh = SweepCheckpoint(str(path))
    assert fresh.load() == 1
    assert [record["key"] for record in fresh.failures()] == ["k9"]


def test_wrong_cache_kind_still_fails_loud(tmp_path):
    path = tmp_path / "ck.sqlite"
    persistence.write_cache_file(
        path, RoutingCache.FORMAT, RoutingCache.VERSION, [],
        key_of=RoutingCache._record_key,
    )
    intact = path.read_bytes()
    with pytest.raises(WrongFormatError):
        SweepCheckpoint(str(path)).load()
    assert path.read_bytes() == intact  # misconfiguration is never quarantined


def test_intact_checkpoint_loads_without_warnings(tmp_path):
    import warnings

    path = tmp_path / "ck.sqlite"
    _seeded_checkpoint(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheStoreFault)
        assert SweepCheckpoint(str(path)).load() == 3
