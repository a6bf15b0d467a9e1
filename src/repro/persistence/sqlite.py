"""The SQLite store: the one store that is written, with upsert-merge semantics.

Every persisted cache (routing cache, design cache, sweep checkpoint)
is one database file.  Entries live in a two-table schema — ``meta``
holding the envelope (``format`` marker and schema ``version``) and
``entries`` holding one row per cache entry, keyed by the canonical JSON
text of the entry's merge key.  A union merge is a single transaction
of ``INSERT ... ON CONFLICT(key) DO UPDATE`` upserts, so concurrent
writers sharing the file — threads, worker processes, or hosts on a
shared filesystem — serialize on SQLite's own locking (with a busy
timeout plus a short retry loop), and a merge never rewrites untouched
rows.

A garbage, truncated, or wrong-version database degrades to "cold"
with a :class:`~repro.persistence.store.CacheStoreFault` warning —
reads return an empty entry list, and writers quarantine the unreadable
file (``<name>.quarantine-<pid>``) before creating a fresh database, so
no bytes are ever silently destroyed.  A *wrong format marker*
(pointing one cache kind at another kind's store) still fails loud:
that is a configuration error, not corruption.

Read order is insertion order (``rowid``; upserts keep the original
row).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

from repro.persistence.store import CacheStore, WrongFormatError, canonical_key

#: Seconds SQLite waits on a locked database before erroring.
_BUSY_TIMEOUT_S = 30.0

#: Retries around transient "database is locked" errors (heavy fan-in).
_LOCK_RETRIES = 5
_LOCK_RETRY_SLEEP_S = 0.05

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, record TEXT)",
)


class _StaleStore(Exception):
    """Internal: existing state a writer must quarantine, never merge into.

    Raised by the write-path validation on a wrong-version database
    (re-stamping the meta row and upserting on top would relabel the
    stale entries as current-version records) and on a file shorter
    than its header's page count (a torn tail can take a primary-key
    index page with it, after which upserts duplicate keys).  The
    writer quarantines the file and retries against a fresh store.
    """


def _torn_tail(connection: sqlite3.Connection, path) -> str:
    """Why the database file is shorter than its header says, or ''.

    ``PRAGMA page_count`` is the header's page count (bytes 28-31),
    which SQLite trusts only while its valid-for number matches the
    change counter, and otherwise the file size rounded up to whole
    pages; SQLite itself misses a tear shorter than one page.  The
    header is read through the connection rather than by opening the
    file: closing any other descriptor of the file would drop this
    process's POSIX locks on it mid-transaction.  A size check, not
    ``PRAGMA integrity_check``: every checkpointed task commits through
    this path.
    """
    size = os.path.getsize(path)
    if size == 0:  # a fresh database: SQLite counts its page 1 unwritten
        return ""
    pages = connection.execute("PRAGMA page_count").fetchone()[0]
    page_size = connection.execute("PRAGMA page_size").fetchone()[0]
    if size >= pages * page_size:
        return ""
    return f"file is {size} bytes, shorter than its {pages} pages of {page_size}"


class SqliteStore(CacheStore):
    """A cache store backed by one SQLite database file."""

    # -- connection helpers ---------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_S)
        connection.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
        return connection

    def _quarantine(self, reason: str, kind: str) -> None:
        """Move an unreadable database aside before creating a fresh one."""
        target = self.path.with_name(f"{self.path.name}.quarantine-{os.getpid()}")
        try:
            os.replace(self.path, target)
        except OSError:  # pragma: no cover - already moved by a peer
            return
        self._fault(
            f"sqlite {kind} store quarantined unreadable database "
            f"{self.path} to {target.name}: {reason}"
        )

    def _validate_meta(
        self, connection: sqlite3.Connection, file_format: str, version: int,
        kind: str, for_write: bool = False,
    ) -> bool:
        """Check the envelope tables; return False when the store is cold.

        Raises :class:`ValueError` on a wrong format marker (a
        misconfiguration, handled loudly everywhere); degrades an
        unknown version to cold via :class:`CacheStoreFault` (the
        store's recovery contract).  ``sqlite3.DatabaseError`` —
        garbage or truncated files — propagates to the caller, which
        owns quarantine/cold handling.
        """
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if "meta" not in tables or "entries" not in tables:
            if tables:
                raise WrongFormatError(f"{self.path} is not a {kind} file")
            return False  # a fresh, empty database: cold, not a fault
        meta = dict(connection.execute("SELECT key, value FROM meta"))
        if meta.get("format") != file_format:
            raise WrongFormatError(f"{self.path} is not a {kind} file")
        found = meta.get("version")
        if found != str(version):
            reason = (
                f"declares unsupported version {found!r} "
                f"(this release reads version {version})"
            )
            if for_write:
                # Never merge on top of wrong-version rows: upserting
                # here would relabel them as current-version entries.
                raise _StaleStore(reason)
            self._fault(
                f"sqlite {kind} store {self.path} {reason}; "
                "treating it as cold"
            )
            return False
        return True

    # -- protocol -------------------------------------------------------------

    def read(self, file_format, version, missing_ok=False, kind=None):
        kind = kind or file_format
        if not self.path.exists():
            self._missing(missing_ok, kind)
            return None
        connection = self._connect()
        try:
            if not self._validate_meta(connection, file_format, version, kind):
                return []
            rows = connection.execute(
                "SELECT record FROM entries ORDER BY rowid"
            ).fetchall()
        except sqlite3.DatabaseError as error:
            self._fault(
                f"sqlite {kind} store treats unreadable database "
                f"{self.path} as cold: {error}"
            )
            return []
        finally:
            connection.close()
        return [json.loads(row[0]) for row in rows]

    def replace(self, file_format, version, entries, key_of=None, kind=None):
        kind = kind or file_format
        if key_of is None:
            raise ValueError(
                "the sqlite store needs key_of for its primary keys; "
                "pass the cache's record-key function"
            )

        def write(connection: sqlite3.Connection) -> int:
            connection.execute("DELETE FROM entries")
            connection.executemany(
                "INSERT INTO entries (key, record) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET record=excluded.record",
                [
                    (canonical_key(key_of(entry)), json.dumps(entry))
                    for entry in entries
                ],
            )
            return len(entries)

        return self._transact(file_format, version, kind, write)

    def union_merge(self, file_format, version, records, key_of, kind=None):
        kind = kind or file_format

        def upsert(connection: sqlite3.Connection) -> int:
            connection.executemany(
                "INSERT INTO entries (key, record) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET record=excluded.record",
                [
                    (canonical_key(key_of(record)), json.dumps(record))
                    for record in records
                ],
            )
            return connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

        return self._transact(file_format, version, kind, upsert)

    # -- write plumbing -------------------------------------------------------

    def _transact(self, file_format: str, version: int, kind: str, operation) -> int:
        """Run one write operation in an immediate transaction, with recovery.

        An unreadable database (garbage bytes, torn pages, a file
        shorter than its header's page count, unknown schema version)
        is quarantined once and the operation retried
        against a fresh store; transient lock contention is retried a
        few times on top of SQLite's own busy timeout.
        """
        quarantined = False
        for attempt in range(_LOCK_RETRIES):
            connection = self._connect()
            try:
                connection.execute("BEGIN IMMEDIATE")
                torn = _torn_tail(connection, self.path)
                if torn:
                    raise _StaleStore(torn)
                if not self._validate_meta(
                    connection, file_format, version, kind, for_write=True
                ):
                    for statement in _SCHEMA:
                        connection.execute(statement)
                    connection.executemany(
                        "INSERT INTO meta (key, value) VALUES (?, ?)"
                        " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                        [("format", file_format), ("version", str(version))],
                    )
                result = operation(connection)
                connection.commit()
                return result
            except _StaleStore as error:
                connection.close()
                if quarantined:  # pragma: no cover - fresh stores validate
                    raise sqlite3.OperationalError(str(error))
                self._quarantine(str(error), kind)
                quarantined = True
            except sqlite3.DatabaseError as error:
                connection.close()
                if _is_lock_contention(error) and attempt < _LOCK_RETRIES - 1:
                    time.sleep(_LOCK_RETRY_SLEEP_S * (attempt + 1))
                    continue
                if quarantined:
                    raise
                self._quarantine(str(error), kind)
                quarantined = True
            finally:
                try:
                    connection.close()
                except sqlite3.Error:  # pragma: no cover - already closed
                    pass
        raise sqlite3.OperationalError(  # pragma: no cover - exhausted retries
            f"could not write sqlite {kind} store {self.path}"
        )


def _is_lock_contention(error: sqlite3.DatabaseError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message
