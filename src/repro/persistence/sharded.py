"""The legacy digest-sharded layout: entries fanned out across ``NN/`` shard files.

Earlier releases could write one logical cache as a directory of up to
256 small JSON files, ``<root>/<NN>/entries.json``, where ``NN`` is the
first byte (two hex digits) of the SHA-256 digest of each entry's
canonical merge key, plus a ``shards.json`` marker at the root.  Nothing
writes this layout any more: :class:`ShardedStore` only reads it, as a
source of ``repro-design cache migrate``.

Each shard file uses the standard entry envelope (``format`` /
``version`` / ``entries``).  A torn, truncated, garbage, or
wrong-version shard degrades *that shard* to cold (with a
:class:`~repro.persistence.store.CacheStoreFault` warning) and peers
are read normally; a shard holding another cache kind's data still
raises :class:`~repro.persistence.store.WrongFormatError`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Optional

from repro.persistence.store import CacheStore, WrongFormatError, validate_envelope

#: Marker file identifying a directory as a sharded cache store.
MARKER_NAME = "shards.json"

#: Entry file inside each shard directory.
SHARD_FILE = "entries.json"

_SHARD_DIR_RE = re.compile(r"^[0-9a-f]{2}$")


class ShardedStore(CacheStore):
    """Read-only view of a legacy sharded cache directory."""

    # -- layout helpers -------------------------------------------------------

    def _marker_path(self) -> Path:
        return self.path / MARKER_NAME

    def _shard_files(self) -> List[Path]:
        """Existing shard entry files, in deterministic (shard id) order."""
        if not self.path.is_dir():
            return []
        found = []
        for child in sorted(self.path.iterdir()):
            if child.is_dir() and _SHARD_DIR_RE.match(child.name):
                shard = child / SHARD_FILE
                if shard.is_file():
                    found.append(shard)
        return found

    def exists(self) -> bool:
        return self._marker_path().exists() or bool(self._shard_files())

    # -- shard file IO --------------------------------------------------------

    def _read_shard(
        self, shard: Path, file_format: str, version: int, kind: str
    ) -> Optional[List[dict]]:
        """One shard's entries, or ``None`` when the shard is degraded to cold.

        Every persisted-state *fault* — unreadable bytes, garbage JSON,
        an unknown version — is contained to this shard and reported via
        :class:`CacheStoreFault`; peers are read normally.  A shard
        holding another cache kind's data (a misconfigured path, not
        corruption) raises :class:`WrongFormatError` like every store.
        """
        try:
            payload = json.loads(shard.read_text(encoding="utf-8"))
            return validate_envelope(payload, shard, file_format, version, kind)
        except WrongFormatError:
            raise
        except (OSError, ValueError) as error:
            # json.JSONDecodeError subclasses ValueError, so torn/garbage
            # and wrong-version shards land here together.
            self._fault(
                f"sharded {kind} store treats shard {shard} as cold: {error}"
            )
            return None

    # -- protocol -------------------------------------------------------------

    def read(self, file_format, version, missing_ok=False, kind=None):
        kind = kind or file_format
        if not self.exists():
            self._missing(missing_ok, kind)
            return None
        entries: List[dict] = []
        for shard in self._shard_files():
            records = self._read_shard(shard, file_format, version, kind)
            if records:
                entries.extend(records)
        return entries
