"""The cache store beneath every persisted result cache.

Both persisted caches of the code base — the routing-result cache
(:class:`~repro.mapping.engine.RoutingCache`) and the design-stage cache
(:class:`~repro.design.engine.DesignCache`) — plus the sweep checkpoint
(:class:`~repro.evaluation.checkpoint.SweepCheckpoint`) store entry
lists that many processes read and extend concurrently.  Each lives in
one SQLite database (:class:`~repro.persistence.sqlite.SqliteStore`):
transactional upsert merges, degrade-to-cold with quarantine on
unreadable state, fail-loud on another cache kind's data.

Cache classes keep calling the module-level API
(:func:`read_cache_entries`, :func:`write_cache_file`,
:func:`union_merge_save`).  Two legacy layouts that earlier releases
wrote — one JSON file (:class:`~repro.persistence.store.SingleFileStore`)
and a directory of digest-sharded JSON files
(:class:`~repro.persistence.sharded.ShardedStore`) — are only read, by
:func:`migrate_store` (``repro-design cache migrate``), which copies
them into SQLite.  :func:`check_store_path` refuses them everywhere
else.

Cache classes stay in charge of their own entry schemas; this package
only standardizes the envelope (``format`` / ``version`` / ``entries``)
and the concurrency discipline around it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.persistence.sharded import ShardedStore
from repro.persistence.sqlite import SqliteStore
from repro.persistence.store import (
    CacheStore,
    CacheStoreFault,
    PathLike,
    SingleFileStore,
    WrongFormatError,
    atomic_write_text,
    canonical_key,
    listify,
    merge_loaded,
    tuplify,
)

__all__ = [
    "CacheStore",
    "CacheStoreFault",
    "PathLike",
    "ShardedStore",
    "SingleFileStore",
    "SqliteStore",
    "WrongFormatError",
    "atomic_write_text",
    "canonical_key",
    "check_store_path",
    "listify",
    "merge_loaded",
    "migrate_store",
    "read_cache_entries",
    "tuplify",
    "union_merge_save",
    "write_cache_file",
]


def write_cache_file(
    path: PathLike,
    file_format: str,
    version: int,
    entries: List[dict],
    key_of: Optional[Callable[[dict], Tuple]] = None,
    kind: Optional[str] = None,
) -> int:
    """Atomically write a cache store *image* in the standard envelope.

    Replaces whatever the store at ``path`` held with exactly
    ``entries``.  ``key_of`` maps an entry to its merge identity (the
    primary key); it is required.  Returns the number of entries
    written.
    """
    return SqliteStore(path).replace(
        file_format, version, entries, key_of=key_of, kind=kind
    )


def read_cache_entries(
    path: PathLike,
    file_format: str,
    version: int,
    missing_ok: bool = False,
    kind: Optional[str] = None,
) -> Optional[List[dict]]:
    """Read and validate a cache store; return its entry list.

    Args:
        path: Cache store location.
        file_format: Expected ``format`` marker; another cache kind's
            store raises :class:`WrongFormatError`.
        version: The (single) supported schema version.  Wrong-version
            or unreadable state degrades to an empty list with a
            :class:`CacheStoreFault` warning.
        missing_ok: Return ``None`` for a nonexistent store instead of
            raising :class:`FileNotFoundError`.
        kind: Human-readable store kind for error messages (defaults to
            ``file_format``).
    """
    return SqliteStore(path).read(
        file_format, version, missing_ok=missing_ok, kind=kind
    )


def union_merge_save(
    path: PathLike,
    file_format: str,
    version: int,
    records: List[dict],
    key_of: Callable[[dict], Tuple],
    kind: Optional[str] = None,
) -> int:
    """Extend the cache store at ``path`` with ``records``, concurrency-safe.

    The canonical end-of-run persistence step: in one transaction, the
    store's current entries are unioned with ``records`` (``records``
    win under equal ``key_of`` keys, existing order is preserved, new
    entries append).  The merge happens at the *store* level,
    deliberately outside any in-memory cache: the persisted store
    accumulates every entry ever merged into it, never shrinking to a
    producer's LRU bound, and never dropping a concurrent writer's
    additions.

    Args:
        path: Cache store location.
        file_format: ``format`` marker of the envelope.
        version: Schema version written and required of existing state.
        records: Serialized entries to merge in (JSON-compatible dicts).
        key_of: Maps a serialized record to its hashable identity; must
            agree for loaded and freshly serialized records.
        kind: Human-readable store kind for error messages.

    Returns the number of entries the store holds afterwards.
    """
    return SqliteStore(path).union_merge(
        file_format, version, records, key_of, kind=kind
    )


def migrate_store(
    source: PathLike,
    dest: PathLike,
    file_format: str,
    version: int,
    key_of: Callable[[dict], Tuple],
    kind: Optional[str] = None,
) -> int:
    """Copy every entry of a legacy store into a SQLite store.

    ``source`` is a legacy sharded directory or else a legacy single
    JSON file; it is only read.  Its full entry list becomes the new
    *image* of the SQLite store at ``dest``.  Returns the number of
    entries migrated.
    """
    source = Path(source)
    reader = ShardedStore(source) if source.is_dir() else SingleFileStore(source)
    entries = reader.read(file_format, version, kind=kind)
    return SqliteStore(dest).replace(
        file_format, version, list(entries or []), key_of=key_of, kind=kind
    )


#: Opening bytes of every legacy single-file store: the envelope of
#: :func:`json.dumps` over ``{"format": "repro-...", ...}``.
_JSON_ENVELOPE = re.compile(rb'\s*\{\s*"format"\s*:\s*"repro-')

#: Path prefixes that picked a store backend before SQLite was the only one.
_BACKEND_PREFIXES = ("json:", "sharded:", "sqlite:")


def check_store_path(path: PathLike) -> None:
    """Refuse a store location that only ``cache migrate`` can read.

    Raises :class:`ValueError` naming ``repro-design cache migrate``
    when ``path`` carries a ``json:``/``sharded:``/``sqlite:`` backend
    prefix, is an existing directory (a legacy sharded store), or is a
    file holding a ``repro-*`` JSON envelope (a legacy single-file
    store).  Nothing is read beyond a file's first bytes, and nothing
    is renamed.  Any other file, garbage included, is left to
    :class:`SqliteStore`, which reads it as cold and quarantines it on
    the first write.
    """
    text = str(path)
    if text.startswith(_BACKEND_PREFIXES):
        raise ValueError(
            f"{text}: store paths take no backend prefix any more (SQLite is "
            "the only store); drop it, and convert a legacy json or sharded "
            "store with 'repro-design cache migrate SOURCE DEST'"
        )
    target = Path(text)
    legacy = None
    if target.is_dir():
        legacy = "sharded store directory"
    else:
        try:
            with open(target, "rb") as handle:
                if _JSON_ENVELOPE.match(handle.read(256)):
                    legacy = "single-file JSON store"
        except OSError:
            pass  # missing: a fresh SQLite store
    if legacy:
        raise ValueError(
            f"{text} is a legacy {legacy}; SQLite is the only store now: "
            f"convert it with 'repro-design cache migrate {text} NEW.sqlite'"
        )
