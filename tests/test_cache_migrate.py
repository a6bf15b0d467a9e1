"""Tests for the ``repro-design cache migrate`` subcommand.

Every cache kind (routing cache, design cache, sweep checkpoint) is
written by a real sweep, copied into both legacy layouts (one JSON file,
a sharded directory), and migrated back into SQLite; the migrated
stores must hold every entry and serve a warm run byte-identically.
"""

import pytest

from legacy_stores import write_legacy_json, write_legacy_sharded
from repro.cli import main
from repro.design import reset_shared_caches
from repro.design.engine import DesignCache
from repro.evaluation import parallel
from repro.evaluation.checkpoint import SweepCheckpoint
from repro.mapping.engine import RoutingCache
from repro.persistence import read_cache_entries
from repro.runtime.metrics import global_metrics

FAST = ["sym6_145", "--trials", "200", "--local-trials", "60"]

#: The 16 bytes opening every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

LAYOUTS = ("json", "sharded")

KINDS = {
    "routing": ("routing cache", RoutingCache),
    "design": ("design cache", DesignCache),
    "checkpoint": ("sweep checkpoint", SweepCheckpoint),
}


def _entries(path, cache):
    return read_cache_entries(path, cache.FORMAT, cache.VERSION)


def _clear_process_state():
    """Drop every in-memory engine, so a run is served only from disk."""
    parallel.reset_worker_state()
    reset_shared_caches()


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One sweep's SQLite stores, each copied into both legacy layouts."""
    root = tmp_path_factory.mktemp("migrate")
    sqlite = {name: root / f"{name}.sqlite" for name in KINDS}
    assert main([
        "sweep", *FAST,
        "--routing-cache", str(sqlite["routing"]),
        "--design-cache", str(sqlite["design"]),
        "--checkpoint", str(sqlite["checkpoint"]),
        "--output", str(root / "baseline.json"),
    ]) == 0
    legacy = {}
    for name, (_, cache) in KINDS.items():
        entries = _entries(sqlite[name], cache)
        assert entries, f"the sweep left an empty {name} store"
        legacy[name, "json"] = write_legacy_json(
            root / f"{name}.json", cache.FORMAT, cache.VERSION, entries,
            cache._record_key,
        )
        legacy[name, "sharded"] = write_legacy_sharded(
            root / f"{name}-sharded", cache.FORMAT, cache.VERSION, entries,
            cache._record_key,
        )
    return {
        "root": root, "sqlite": sqlite, "legacy": legacy,
        "baseline": (root / "baseline.json").read_bytes(),
    }


def _migrate(stores, name, layout, capsys):
    source = stores["legacy"][name, layout]
    dest = stores["root"] / f"{name}-from-{layout}.sqlite"
    dest.unlink(missing_ok=True)
    assert main(["cache", "migrate", str(source), str(dest)]) == 0
    out = capsys.readouterr().out
    assert f"{KINDS[name][0]} entries: {source} -> {dest}" in out
    assert dest.read_bytes()[: len(SQLITE_MAGIC)] == SQLITE_MAGIC
    return dest


def _migrated_with_every_entry(stores, name, layout, capsys):
    """Migrate one legacy copy; check it holds the original entries."""
    cache = KINDS[name][1]
    dest = _migrate(stores, name, layout, capsys)
    original = _entries(stores["sqlite"][name], cache)
    migrated = _entries(dest, cache)
    key = cache._record_key
    assert {key(r): r for r in migrated} == {key(r): r for r in original}
    if layout == "json":  # one file keeps its entry order
        assert migrated == original
    return dest


class TestMigrateRoundTrip:
    def test_routing_cache_detected_and_migrated(self, stores, capsys):
        for layout in LAYOUTS:
            _migrated_with_every_entry(stores, "routing", layout, capsys)

    def test_design_cache_detected_and_migrated(self, stores, capsys):
        for layout in LAYOUTS:
            _migrated_with_every_entry(stores, "design", layout, capsys)

    def test_migrated_store_serves_a_warm_run(self, stores, capsys,
                                              allocation_calls):
        for layout in LAYOUTS:
            routing = _migrated_with_every_entry(stores, "routing", layout, capsys)
            design = _migrated_with_every_entry(stores, "design", layout, capsys)
            out = stores["root"] / f"warm-{layout}.json"
            _clear_process_state()
            misses = global_metrics().counter("routing/cache/misses")
            allocation_calls.reset()
            assert main(["sweep", *FAST, "--routing-cache", str(routing),
                         "--design-cache", str(design), "--output", str(out)]) == 0
            capsys.readouterr()
            assert out.read_bytes() == stores["baseline"]
            assert allocation_calls() == 0, (
                f"the design cache migrated from {layout} should serve the "
                "warm run without a single Algorithm 3 search"
            )
            assert global_metrics().counter("routing/cache/misses") == misses, (
                f"the routing cache migrated from {layout} should serve "
                "every routing"
            )

    def test_sweep_checkpoint_detected_and_migrated(self, stores, capsys,
                                                    allocation_calls):
        for layout in LAYOUTS:
            checkpoint = _migrated_with_every_entry(
                stores, "checkpoint", layout, capsys)
            out = stores["root"] / f"resumed-{layout}.json"
            _clear_process_state()
            allocation_calls.reset()
            assert main(["sweep", *FAST, "--checkpoint", str(checkpoint),
                         "--resume", "--output", str(out)]) == 0
            capsys.readouterr()
            assert out.read_bytes() == stores["baseline"]
            assert allocation_calls() == 0


class TestMigrateErrors:
    def test_missing_source_is_an_error(self, tmp_path, capsys):
        assert main(["cache", "migrate", str(tmp_path / "nope.json"),
                     str(tmp_path / "out.sqlite")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unrecognized_store_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else", "version": 1, "entries": []}')
        assert main(["cache", "migrate", str(bogus),
                     str(tmp_path / "out.sqlite")]) == 2
        assert "not a recognized cache store" in capsys.readouterr().err
        assert not (tmp_path / "out.sqlite").exists()

    def test_destination_must_be_a_sqlite_store(self, stores, capsys):
        source = stores["legacy"]["design", "json"]
        legacy_file = stores["legacy"]["routing", "json"]
        legacy_dir = stores["legacy"]["routing", "sharded"]
        prefixed = f"sqlite:{stores['root'] / 'prefixed.sqlite'}"
        before = legacy_file.read_bytes(), sorted(legacy_dir.rglob("*"))
        for dest in (legacy_file, legacy_dir, prefixed):
            assert main(["cache", "migrate", str(source), str(dest)]) == 2
            err = capsys.readouterr().err
            assert "cache migrate" in err and len(err.splitlines()) == 1
        assert (legacy_file.read_bytes(), sorted(legacy_dir.rglob("*"))) == before

    @pytest.mark.parametrize("damage", ["torn", "future-version"])
    def test_damaged_legacy_source_is_not_migrated(self, tmp_path, capsys, damage):
        """A legacy file is read strictly: damage is an error, never an
        empty migrated store."""
        source = write_legacy_json(
            tmp_path / "plans.json", DesignCache.FORMAT,
            2 if damage == "future-version" else DesignCache.VERSION,
            [{"key": ["k"], "frequencies": {"0": 5.0}}], DesignCache._record_key,
        )
        if damage == "torn":
            source.write_bytes(source.read_bytes()[:-10])
        dest = tmp_path / "plans.sqlite"
        assert main(["cache", "migrate", str(source), str(dest)]) == 2
        assert "not a recognized cache store" in capsys.readouterr().err
        assert not dest.exists()
