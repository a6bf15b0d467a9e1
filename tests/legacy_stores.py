"""Writers of the two legacy store layouts, for migration and guard tests.

Earlier releases could write a cache as one JSON file or as a directory
of digest-sharded JSON files.  The program now only reads them (``cache
migrate``); these helpers write them exactly as those writers did, so
tests can build realistic sources:

* one JSON file: ``json.dumps({"format", "version", "entries"})`` plus a
  newline;
* a sharded directory: a ``shards.json`` marker and one
  ``NN/entries.json`` envelope per shard, where ``NN`` is the first two
  hex digits of the SHA-256 of the entry's canonical key.

Entries sharing a canonical key collapse to the last one, in the first
one's position, as the legacy union merge did.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import persistence


def _envelope_text(file_format, version, entries):
    return json.dumps(
        {"format": file_format, "version": version, "entries": entries}
    ) + "\n"


def _deduplicated(entries, key_of):
    merged = {}
    for entry in entries:
        merged[persistence.canonical_key(key_of(entry))] = entry
    return list(merged.values())


def shard_of(key) -> str:
    """The two-hex-digit shard a key was routed to."""
    text = persistence.canonical_key(key)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:2]


def write_legacy_json(path, file_format, version, entries, key_of):
    """A legacy single-file store at ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        _envelope_text(file_format, version, _deduplicated(entries, key_of)),
        encoding="utf-8",
    )
    return path


def write_legacy_sharded(root, file_format, version, entries, key_of):
    """A legacy sharded store directory at ``root``; returns the root."""
    root = Path(root)
    groups = {}
    for entry in _deduplicated(entries, key_of):
        groups.setdefault(shard_of(key_of(entry)), []).append(entry)
    root.mkdir(parents=True, exist_ok=True)
    (root / "shards.json").write_text(json.dumps(
        {"format": "repro-sharded-store", "version": 1, "shards": 256}
    ) + "\n", encoding="utf-8")
    for shard_id, group in sorted(groups.items()):
        (root / shard_id).mkdir(exist_ok=True)
        (root / shard_id / "entries.json").write_text(
            _envelope_text(file_format, version, group), encoding="utf-8"
        )
    return root
