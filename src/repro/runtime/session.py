"""The runtime session: one owner for warm engines, caches, and stores.

A :class:`Session` binds one frozen :class:`~repro.runtime.config.RuntimeConfig`
to lazily constructed shared state — the :class:`~repro.mapping.engine.RoutingEngine`
(with its persistent :class:`~repro.mapping.engine.RoutingCache`), the
:class:`~repro.design.engine.DesignEngine` (with its persistent
:class:`~repro.design.engine.DesignCache`), the sweep checkpoint store,
and the process-wide ``YieldSimulator`` noise-tensor caches those engines
share.  Callers use the engines directly; the session only builds them
once and merges what they computed back into the stores.

Sessions register themselves in a process-level registry keyed by
``config.digest()`` (store paths canonicalized first, so relative/symlink
aliases of one cache file share one warm engine).  :func:`session_for`
is the get-or-create entry used by the CLI and by every sweep worker.

Everything computed through a session's engines is byte-identical to
what fresh per-call engines would produce: engines are transparent
caches over pure deterministic functions, and the session adds no
state of its own.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.design.engine import DesignCache, DesignEngine
from repro.evaluation.checkpoint import SweepCheckpoint
from repro.mapping.engine import RoutingEngine
from repro.runtime.config import RuntimeConfig


class Session:
    """Warm engines, caches, and stores for one runtime configuration.

    Everything is constructed lazily: creating a session is cheap, and a
    fully-warm resumed sweep that never routes never builds a routing
    engine.  Construction also registers the session in the process
    registry under ``config.digest()`` (latest wins), so in-process
    sweep tasks find the same warm engines the CLI command used.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        self.config = config or RuntimeConfig()
        self._lock = threading.RLock()  # serializes construction and persists
        self._routing_engine: Optional[RoutingEngine] = None
        self._design_engine: Optional[DesignEngine] = None
        self._checkpoint: Optional[SweepCheckpoint] = None
        # Persisted-entry watermarks: merge_save only when an engine
        # computed something the store has not seen from this session.
        self._merged_routing_misses = 0
        self._merged_design_misses = 0
        _register(self)

    # -- lazily constructed shared state -----------------------------------

    @property
    def routing_engine(self) -> RoutingEngine:
        """The shared routing engine, warm-loaded from the persistent cache."""
        with self._lock:
            if self._routing_engine is None:
                engine = RoutingEngine(self.config.routing)
                if self.config.routing_cache_path:
                    engine.cache.load(self.config.routing_cache_path, missing_ok=True)
                self._routing_engine = engine
        return self._routing_engine

    @property
    def design_engine(self) -> DesignEngine:
        """The shared design engine, warm-loaded from the persistent cache.

        With a ``design_cache_path`` the stored Algorithm 3 frequency
        plans are merged in before any design runs (a missing store is
        ignored), and the frequency cache is unbounded: the zero-search
        warm-session guarantee must hold however large the persisted grid
        grew, and memory stays bounded by the counts-only store the
        operator chose to persist.
        """
        with self._lock:
            if self._design_engine is None:
                path = self.config.design_cache_path
                if path:
                    engine = DesignEngine(frequency_cache=DesignCache(max_entries=None))
                    engine.frequency_cache.load(path, missing_ok=True)
                else:
                    engine = DesignEngine()
                self._design_engine = engine
        return self._design_engine

    @property
    def checkpoint(self) -> Optional[SweepCheckpoint]:
        """The sweep checkpoint store, snapshot-loaded when resuming."""
        if not self.config.checkpoint_path:
            return None
        with self._lock:
            if self._checkpoint is None:
                self._checkpoint = SweepCheckpoint(self.config.checkpoint_path)
                if self.config.resume:
                    self._checkpoint.load()
        return self._checkpoint

    @property
    def has_routing_engine(self) -> bool:
        """Whether the routing engine was ever constructed (tests/metrics)."""
        return self._routing_engine is not None

    @property
    def has_design_engine(self) -> bool:
        """Whether the design engine was ever constructed (tests/metrics)."""
        return self._design_engine is not None

    # -- persistence --------------------------------------------------------

    def persist_routing(self) -> Optional[int]:
        """Merge newly computed routings into the persistent store, if any.

        Returns the store's entry count after the merge, or None when
        there is no store, no engine, or nothing new since the last merge
        (each lookup miss is a subsequent ``put``, so the miss count is a
        watermark of entries the store may not have).
        """
        path = self.config.routing_cache_path
        with self._lock:
            engine = self._routing_engine
            if not path or engine is None:
                return None
            if engine.cache.misses <= self._merged_routing_misses:
                return None
            self._merged_routing_misses = engine.cache.misses
            return engine.cache.merge_save(path)

    def persist_design(self) -> Optional[int]:
        """Merge newly computed frequency plans into the persistent store."""
        path = self.config.design_cache_path
        with self._lock:
            engine = self._design_engine
            if not path or engine is None:
                return None
            if engine.frequency_cache.misses <= self._merged_design_misses:
                return None
            self._merged_design_misses = engine.frequency_cache.misses
            return engine.frequency_cache.merge_save(path)

    def record_task_failure(self, failure: Dict[str, object]) -> bool:
        """Record a supervised sweep's quarantined task in the checkpoint.

        ``failure`` is the supervisor's structured failure record (task
        kind, content key, identity, per-attempt reasons).  Returns
        False when this session has no checkpoint store to record into
        — the supervisor then only reports the failure in memory.
        """
        checkpoint = self.checkpoint
        if checkpoint is None:
            return False
        checkpoint.record_failure(dict(failure))
        return True


# ---------------------------------------------------------------------------
# The process-level session registry, keyed by config content digest.
# ---------------------------------------------------------------------------

# Reentrant: session_for holds it across get-or-create, and creating a
# Session registers itself under the same lock.
_REGISTRY_LOCK = threading.RLock()
_PROCESS_SESSIONS: Dict[str, Session] = {}


def _register(session: Session) -> None:
    with _REGISTRY_LOCK:
        _PROCESS_SESSIONS[session.config.digest()] = session


def session_for(config: Optional[RuntimeConfig] = None) -> Session:
    """The process's session for this config, created on first use.

    Keyed by :meth:`RuntimeConfig.digest`, which canonicalizes store
    paths — so two configs naming the same cache file through different
    relative/symlink spellings share one session and one warm engine.
    """
    config = config or RuntimeConfig()
    with _REGISTRY_LOCK:
        session = _PROCESS_SESSIONS.get(config.digest())
        if session is not None:
            return session
        return Session(config)


def peek_session(config: Optional[RuntimeConfig] = None) -> Optional[Session]:
    """The existing session for this config, or None (never creates one)."""
    config = config or RuntimeConfig()
    with _REGISTRY_LOCK:
        return _PROCESS_SESSIONS.get(config.digest())


def process_sessions() -> List[Session]:
    """Every live session in this process's registry."""
    with _REGISTRY_LOCK:
        return list(_PROCESS_SESSIONS.values())


def reset_process_sessions() -> None:
    """Drop every registered session (engines, caches, checkpoints).

    The test-isolation / fork-hygiene hook: after this, the next
    :func:`session_for` call builds cold state from scratch.
    """
    with _REGISTRY_LOCK:
        _PROCESS_SESSIONS.clear()
