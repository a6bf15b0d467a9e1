"""Round-trip tests for the ``repro-design cache migrate`` subcommand."""

import pytest

from repro.cli import main
from repro.persistence import SQLITE_MAGIC, read_cache_entries

FAST = ["--trials", "200", "--local-trials", "60"]


def _entries_by_key(path, file_format, version, key_of):
    entries = read_cache_entries(path, file_format, version)
    return {key_of(record): record for record in entries}


@pytest.fixture()
def design_cache(tmp_path, capsys):
    """A real design-cache store, produced by a fast evaluate run."""
    path = tmp_path / "design_cache.json"
    assert main(["evaluate", "sym6_145", *FAST, "--design-cache", str(path)]) == 0
    capsys.readouterr()
    assert path.exists()
    return path


class TestMigrateRoundTrip:
    def test_design_cache_json_to_sqlite_and_back(self, tmp_path, design_cache, capsys):
        from repro.design.engine import DesignCache

        sqlite = tmp_path / "design.sqlite"
        assert main(["cache", "migrate", str(design_cache), f"sqlite:{sqlite}"]) == 0
        out = capsys.readouterr().out
        assert "design cache" in out
        assert sqlite.read_bytes()[: len(SQLITE_MAGIC)] == SQLITE_MAGIC

        back = tmp_path / "roundtrip.json"
        assert main(["cache", "migrate", str(sqlite), f"json:{back}"]) == 0
        capsys.readouterr()

        original = _entries_by_key(design_cache, DesignCache.FORMAT,
                                   DesignCache.VERSION, DesignCache._record_key)
        roundtrip = _entries_by_key(back, DesignCache.FORMAT,
                                    DesignCache.VERSION, DesignCache._record_key)
        assert original, "source store was empty; the round trip tested nothing"
        assert roundtrip == original

    def test_migrated_store_serves_a_warm_run(self, tmp_path, design_cache, capsys,
                                              allocation_calls):
        sharded = tmp_path / "design-sharded"
        assert main(["cache", "migrate", str(design_cache), f"sharded:{sharded}"]) == 0
        capsys.readouterr()
        assert sharded.is_dir()

        allocation_calls.reset()
        assert main(["evaluate", "sym6_145", *FAST,
                     "--design-cache", f"sharded:{sharded}"]) == 0
        capsys.readouterr()
        assert allocation_calls() == 0, (
            "the migrated store should serve the warm run without a single "
            "Algorithm 3 search"
        )

    def test_routing_cache_detected_and_migrated(self, tmp_path, capsys):
        from repro.mapping.engine import RoutingCache

        source = tmp_path / "routing_cache.json"
        assert main(["evaluate", "sym6_145", *FAST,
                     "--routing-cache", str(source)]) == 0
        capsys.readouterr()

        dest = tmp_path / "routing.sqlite"
        assert main(["cache", "migrate", str(source), f"sqlite:{dest}"]) == 0
        out = capsys.readouterr().out
        assert "routing cache" in out

        original = _entries_by_key(source, RoutingCache.FORMAT,
                                   RoutingCache.VERSION, RoutingCache._record_key)
        migrated = _entries_by_key(f"sqlite:{dest}", RoutingCache.FORMAT,
                                   RoutingCache.VERSION, RoutingCache._record_key)
        assert original
        assert migrated == original

    def test_sweep_checkpoint_detected_and_migrated(self, tmp_path, capsys):
        source = tmp_path / "ckpt.json"
        assert main(["sweep", "sym6_145", *FAST, "--configs", "eff-layout-only",
                     "--checkpoint", f"json:{source}"]) == 0
        capsys.readouterr()

        dest = tmp_path / "ckpt-sharded"
        assert main(["cache", "migrate", str(source), f"sharded:{dest}"]) == 0
        out = capsys.readouterr().out
        assert "sweep checkpoint" in out
        assert dest.is_dir()


class TestMigrateErrors:
    def test_missing_source_is_an_error(self, tmp_path, capsys):
        assert main(["cache", "migrate", str(tmp_path / "nope.json"),
                     str(tmp_path / "out.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unrecognized_store_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else", "version": 1, "entries": []}')
        assert main(["cache", "migrate", str(bogus),
                     str(tmp_path / "out.json")]) == 2
        assert "not a recognized cache store" in capsys.readouterr().err
