"""Property tests of the cache store and of ``cache migrate``.

Invariants covered:

* union merge is idempotent and order-independent: merging the same
  batches again, or in any order, yields the same final entry set;
* migration preserves entries: a legacy single-file JSON store or a
  legacy sharded directory, written in the exact layout earlier
  releases produced, migrates into SQLite with every entry kept.

Strategies are JSON-safe (no NaN or infinities, text without
surrogates), since every path under test serializes through JSON.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_stores import write_legacy_json, write_legacy_sharded
from repro import persistence
from strategies import examples

pytestmark = pytest.mark.property

FMT = "repro-test-cache"

# JSON-expressible cache keys: scalars and nested tuples of them — the
# exact shapes the routing/design caches and the sweep checkpoint use.
_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
keys = st.recursive(
    _scalars, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=8
)
# JSON-expressible record payloads: scalars, lists and string-keyed objects.
payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)


def _record(key):
    """A record whose value is a pure function of its key."""
    return {"key": persistence.listify(key), "value": persistence.canonical_key(key)}


def _key_of(record):
    return persistence.tuplify(record["key"])


def _json_text(record):
    return json.dumps(record, sort_keys=True)


def _entry_set(records):
    return {(persistence.canonical_key(_key_of(r)), r["value"]) for r in records or []}


class TestUnionMergeAlgebra:
    @given(
        batch_a=st.lists(keys, max_size=6),
        batch_b=st.lists(keys, max_size=6),
    )
    @settings(max_examples=examples(25))
    def test_idempotent_and_order_independent(self, batch_a, batch_b):
        records_a = [_record(key) for key in batch_a]
        records_b = [_record(key) for key in batch_b]
        expected = _entry_set(records_a + records_b)
        with tempfile.TemporaryDirectory() as root:
            path_ab = Path(root) / "ab.sqlite"
            path_ba = Path(root) / "ba.sqlite"
            persistence.union_merge_save(path_ab, FMT, 1, records_a, _key_of)
            persistence.union_merge_save(path_ab, FMT, 1, records_b, _key_of)
            # Replaying a batch must change nothing (idempotence).
            persistence.union_merge_save(path_ab, FMT, 1, records_a, _key_of)
            persistence.union_merge_save(path_ba, FMT, 1, records_b, _key_of)
            persistence.union_merge_save(path_ba, FMT, 1, records_a, _key_of)
            loaded_ab = persistence.read_cache_entries(path_ab, FMT, 1)
            loaded_ba = persistence.read_cache_entries(path_ba, FMT, 1)
            assert _entry_set(loaded_ab) == expected
            assert _entry_set(loaded_ba) == expected

    @given(batch=st.lists(keys, min_size=1, max_size=8))
    @settings(max_examples=examples(25))
    def test_merge_reports_the_union_size(self, batch):
        records = [_record(key) for key in batch]
        distinct = len({persistence.canonical_key(_key_of(r)) for r in records})
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "store.sqlite"
            count = persistence.union_merge_save(path, FMT, 1, records, _key_of)
            assert count == distinct


class TestMigration:
    @given(batch=st.lists(st.tuples(keys, payloads), max_size=8))
    @settings(max_examples=examples(25))
    def test_legacy_stores_migrate_with_every_entry(self, batch):
        records = [
            {"key": persistence.listify(key), "value": payload}
            for key, payload in batch
        ]
        # The last record under each canonical key wins, in the first
        # one's position: the legacy merge semantics.
        expected = {}
        for record in records:
            expected[persistence.canonical_key(_key_of(record))] = record
        # Compared as canonical JSON text, so 1 and True, or 0.0 and
        # -0.0, never pass for each other.
        exact = {key: _json_text(record) for key, record in expected.items()}
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            sources = (
                write_legacy_json(root / "store.json", FMT, 1, records, _key_of),
                write_legacy_sharded(root / "store-dir", FMT, 1, records, _key_of),
            )
            for index, source in enumerate(sources):
                dest = root / f"migrated-{index}.sqlite"
                count = persistence.migrate_store(source, dest, FMT, 1, _key_of)
                assert count == len(expected)
                migrated = persistence.read_cache_entries(dest, FMT, 1)
                assert {
                    persistence.canonical_key(_key_of(record)): _json_text(record)
                    for record in migrated
                } == exact
            # A single file keeps its entry order through the migration.
            in_order = persistence.read_cache_entries(root / "migrated-0.sqlite", FMT, 1)
            assert [_json_text(record) for record in in_order] == list(exact.values())
