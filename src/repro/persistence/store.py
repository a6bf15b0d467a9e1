"""Core cache-store machinery: primitives, the store protocol, the JSON reader.

This module owns everything the stores share:

* **Atomic writes** — :func:`atomic_write_text` writes to a temporary
  file in the destination directory and ``os.replace``\\ s it into
  place, so a reader (or the survivor of a crashed writer) can never
  observe a torn or truncated file.  The CLI writes its reports with it.
* **The store protocol** — :class:`CacheStore` names the two operations
  (``read``, ``union_merge``) over the standard entry envelope
  (``{"format", "version", "entries"}``).
  :class:`~repro.persistence.sqlite.SqliteStore` is the only store that
  writes.
* **The legacy single-file reader** — :class:`SingleFileStore` reads
  the one-JSON-file caches that earlier releases wrote.  It is a
  read-only source of ``repro-design cache migrate`` and keeps its
  original *fail-loud* validation (wrong format or version raises).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

PathLike = Union[str, Path]


class WrongFormatError(ValueError):
    """A store holds a *different cache kind's* data (misconfiguration).

    Distinct from corruption: every store fails loud on it — silently
    treating another cache's store as cold would mask a typo'd path —
    while garbage or wrong-version state stays recoverable.
    """


class CacheStoreFault(UserWarning):
    """A cache store recovered from corrupt or unreadable persisted state.

    Emitted when a store encounters a torn, truncated, garbage, or
    wrong-version file and degrades it to "cold" instead of crashing.
    The warning names the path and the fault so operators can
    investigate; the store keeps working.
    """


def listify(value):
    """Tuples to lists, recursively (JSON encoding of cache keys)."""
    if isinstance(value, tuple):
        return [listify(item) for item in value]
    return value


def tuplify(value):
    """Lists to tuples, recursively (JSON decoding of cache keys)."""
    if isinstance(value, list):
        return tuple(tuplify(item) for item in value)
    return value


def canonical_key(key) -> str:
    """The canonical JSON text of a cache key (stable across processes).

    Nested tuples are listified first, so file-loaded (list-shaped) and
    in-memory (tuple-shaped) keys canonicalize identically.  This text
    is the SQLite primary key.
    """
    return json.dumps(listify(key), sort_keys=True, separators=(",", ":"))


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary; a crash between write
    and rename leaves the previous file contents untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mkstemp creates 0o600 files; keep the destination's existing
    # permissions (or conventional 0o644 for a new file) so a file
    # shared between users stays readable after a rewrite.
    try:
        mode = path.stat().st_mode & 0o777
    except OSError:
        mode = 0o644
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.chmod(tmp_name, mode)
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def merge_loaded(cache, records: List[dict], decode) -> int:
    """Merge decoded file records into a bounded LRU cache.

    The shared tail of every persisted cache's ``load``: existing
    in-memory entries win under equal keys, and the return value counts
    the merged entries *still resident* afterwards — on a bounded cache,
    a file larger than the bound merges only its tail, and the count
    reflects that rather than masking the eviction.

    Args:
        cache: A cache exposing the in-package LRU protocol (the
            ``_entries`` mapping and ``put``) — i.e.
            :class:`~repro.mapping.engine.RoutingCache` or a
            :class:`~repro.design.engine.StageCache` subclass.
        records: The validated entry list of a cache file.
        decode: Maps one serialized record to its ``(key, value)`` pair.
    """
    merged_keys = []
    for record in records:
        key, value = decode(record)
        if key in cache._entries:
            continue
        cache.put(key, value)
        merged_keys.append(key)
    return sum(1 for key in merged_keys if key in cache._entries)


def validate_envelope(
    payload: dict, path: Path, file_format: str, version: int, kind: str
) -> List[dict]:
    """Validate a decoded envelope dict; return its entry list.

    Shared by the legacy single-file reader (whole file) and the legacy
    sharded reader (per shard file).  Raises :class:`ValueError` with
    the store-standard messages on a wrong format marker or an
    unsupported version.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a {kind} file")
    found_format = payload.get("format")
    if found_format != file_format:
        if isinstance(found_format, str) and found_format.startswith("repro-"):
            # A *recognizable other cache kind*: misconfiguration, which
            # even the degrade-to-cold readers surface loudly.
            raise WrongFormatError(f"{path} is not a {kind} file")
        raise ValueError(f"{path} is not a {kind} file")
    found = payload.get("version")
    if found != version:
        raise ValueError(
            f"{path} declares unsupported {kind} version {found!r} "
            f"(this release reads version {version}); it was likely written "
            "by a newer release — delete the file or upgrade"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path} holds no entry list; not a valid {kind} file")
    return entries


class CacheStore:
    """One logical persisted cache at one path.

    A store holds the entry list of exactly one cache kind (identified
    by its ``format`` marker and schema ``version``).  Two operations:

    * :meth:`read` — the full entry list.
    * :meth:`union_merge` — extend the store with records: existing
      entries are kept, ``records`` win under equal ``key_of`` keys,
      and concurrent mergers sharing the store cannot drop each other's
      additions.  Only :class:`~repro.persistence.sqlite.SqliteStore`
      implements it; the legacy readers are read-only.

    ``faults`` accumulates human-readable descriptions of every
    persisted-state fault the store recovered from (each is also issued
    as a :class:`CacheStoreFault` warning).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.faults: List[str] = []

    # -- protocol -------------------------------------------------------------

    def read(
        self,
        file_format: str,
        version: int,
        missing_ok: bool = False,
        kind: Optional[str] = None,
    ) -> Optional[List[dict]]:
        raise NotImplementedError

    def union_merge(
        self,
        file_format: str,
        version: int,
        records: List[dict],
        key_of: Callable[[dict], Tuple],
        kind: Optional[str] = None,
    ) -> int:
        raise NotImplementedError(
            f"{type(self).__name__} is read-only; sqlite is the only store written"
        )

    # -- shared helpers -------------------------------------------------------

    def _fault(self, message: str) -> None:
        """Record a recovered persisted-state fault and warn about it.

        Besides the stderr warning, every degrade-to-cold event is
        counted in the metrics registry (``persistence/store_faults``)
        so operators watching ``--metrics-out`` see silent degradation
        without scraping warnings.
        """
        # Imported lazily: the metrics module is runtime-layer and must
        # stay importable without dragging in persistence, and vice versa.
        from repro.runtime.metrics import global_metrics

        self.faults.append(message)
        global_metrics().increment("persistence/store_faults")
        warnings.warn(message, CacheStoreFault, stacklevel=3)

    def _missing(self, missing_ok: bool, kind: str) -> None:
        if not missing_ok:
            raise FileNotFoundError(f"{kind} file not found: {self.path}")


class SingleFileStore(CacheStore):
    """The legacy single-file layout: one JSON file holding the whole entry list.

    Read-only: earlier releases wrote it, and ``repro-design cache
    migrate`` reads it into SQLite.  Deliberately *strict*: a wrong
    format marker, an unknown version, or undecodable JSON raises
    instead of degrading, so a damaged source is never migrated as if
    it were empty.
    """

    def read(self, file_format, version, missing_ok=False, kind=None):
        kind = kind or file_format
        if not self.path.exists():
            self._missing(missing_ok, kind)
            return None
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        return validate_envelope(payload, self.path, file_format, version, kind)
