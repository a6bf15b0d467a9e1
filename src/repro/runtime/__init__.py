"""The runtime layer: one `Session` owning warm engines, caches, and metrics.

Three pieces, layered so every other package can import them without
cycles:

* :mod:`repro.runtime.metrics` — a process-local, mergeable
  :class:`~repro.runtime.metrics.MetricsRegistry` of counters and
  wall-time accumulators.  Stdlib-only, so the yield/routing/design
  engines can import it from anywhere in the stack.
* :mod:`repro.runtime.config` — the frozen, picklable, content-digestable
  :class:`~repro.runtime.config.RuntimeConfig` resolved once from CLI
  flags / config JSON and carried through workers unchanged.
* :mod:`repro.runtime.session` — the :class:`~repro.runtime.session.Session`
  object that lazily constructs and owns the shared engines, caches, and
  persistence stores, one per config digest per process.

Submodules are imported lazily (PEP 562): the engines import
``repro.runtime.metrics`` while *they* are still being imported, so this
``__init__`` must never eagerly pull in :mod:`repro.runtime.session`
(which imports the engines back).
"""

from typing import TYPE_CHECKING

_CONFIG_EXPORTS = frozenset({
    "RuntimeConfig",
    "canonical_store_path",
})
_METRICS_EXPORTS = frozenset({
    "METRICS_FORMAT",
    "METRICS_VERSION",
    "MetricsRegistry",
    "diff_snapshots",
    "empty_snapshot",
    "global_metrics",
    "merge_snapshots",
    "metrics_report",
    "validate_metrics",
    "validate_metrics_file",
    "write_metrics",
})
_SESSION_EXPORTS = frozenset({
    "Session",
    "peek_session",
    "process_sessions",
    "reset_process_sessions",
    "session_for",
})

__all__ = sorted(_CONFIG_EXPORTS | _METRICS_EXPORTS | _SESSION_EXPORTS)


def __getattr__(name: str):
    if name in _METRICS_EXPORTS:
        from repro.runtime import metrics as module
    elif name in _CONFIG_EXPORTS:
        from repro.runtime import config as module
    elif name in _SESSION_EXPORTS:
        from repro.runtime import session as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


if TYPE_CHECKING:  # pragma: no cover - static-analysis aliases only
    from repro.runtime.config import RuntimeConfig, canonical_store_path
    from repro.runtime.metrics import (
        METRICS_FORMAT,
        METRICS_VERSION,
        MetricsRegistry,
        diff_snapshots,
        empty_snapshot,
        global_metrics,
        merge_snapshots,
        metrics_report,
        validate_metrics,
        validate_metrics_file,
        write_metrics,
    )
    from repro.runtime.session import (
        Session,
        peek_session,
        process_sessions,
        reset_process_sessions,
        session_for,
    )
