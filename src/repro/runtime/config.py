"""The frozen runtime configuration: resolved once, digested, carried everywhere.

:class:`RuntimeConfig` is the one configuration type of the evaluation
harness: every result-affecting knob (trials, sigma, seeds, Algorithm 3
strategy, router parameters) plus the store paths.  The CLI resolves it
once, and the session layer, the sweep executors, their workers and the
checkpoint task keys all take it as is.  How Algorithm 3 ranks its
candidates is not a field: the interval screen runs exactly when the C
merge kernel is the active backend (see
:mod:`repro.collision.merge_kernel`), and both ways give the same plans.
It is:

* **frozen and picklable** — resolved once (from CLI flags and/or a
  ``--runtime-config`` JSON file) and shipped to sweep workers intact;
* **validated on construction** — malformed field types, trial counts
  below 1, unknown strategies and ``resume`` without a checkpoint raise
  :class:`ValueError` before any worker forks;
* **content-digestable** — :meth:`RuntimeConfig.digest` is a SHA-256
  over the canonical JSON payload, with every store path canonicalized
  via :func:`canonical_store_path` first.  Sessions are keyed by this
  digest, so relative/symlink aliases of one cache file resolve to one
  session and one warm engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.design.frequency_allocation import resolve_strategy
from repro.hardware.frequency import DEFAULT_SIGMA_GHZ
from repro.mapping.sabre import SabreParameters

#: Router parameters used by the evaluation harness by default.
#:
#: Bidirectional forward-backward-forward routing (``passes=3``) is
#: deterministic and never worse than a single pass (qft_16: 134 → 72
#: swaps), and with the persistent ``RoutingCache`` merged in-worker its
#: ~3x routing cost is paid once per (circuit, architecture) ever — so
#: evaluation defaults to it.  ``SabreParameters()`` itself keeps
#: ``passes=1``: the router's own default stays the paper-exact single
#: pass; only the evaluation harness opts into the quality win.
DEFAULT_EVALUATION_ROUTING = SabreParameters(passes=3)


def canonical_store_path(path: Optional[str]) -> Optional[str]:
    """Canonicalize a store path.

    ``cache.sqlite``, ``./cache.sqlite``, and a symlink alias all
    resolve to the same absolute real path.
    """
    if path is None:
        return None
    return str(Path(path).resolve())


_PATH_FIELDS = ("routing_cache_path", "design_cache_path", "checkpoint_path")


#: Expected types of the scalar fields.  An ``int`` field also rejects
#: ``bool`` (an ``int`` subclass).
_FIELD_TYPES: Dict[str, Tuple[type, ...]] = {
    "yield_trials": (int,),
    "sigma_ghz": (int, float),
    "yield_seed": (int,),
    "frequency_local_trials": (int,),
    "allocation_strategy": (str,),
    "resume": (bool,),
    "routing_cache_path": (str, type(None)),
    "design_cache_path": (str, type(None)),
    "checkpoint_path": (str, type(None)),
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything an evaluation run needs, resolved once and frozen.

    Two configs with equal digests are served by one warm
    :class:`~repro.runtime.session.Session` per process.

    Attributes:
        yield_trials: Monte Carlo trials per architecture (paper: 10,000).
        sigma_ghz: Fabrication precision (paper: 30 MHz).
        yield_seed: Seed of the yield simulator.
        frequency_local_trials: Trials per candidate inside Algorithm 3.
        random_bus_seeds: Seeds for the ``eff-rd-bus`` sample cloud.
        routing: Router tuning parameters shared by every evaluation point.
            Defaults to :data:`DEFAULT_EVALUATION_ROUTING`; a mapping of
            :class:`~repro.mapping.sabre.SabreParameters` fields is
            accepted (the JSON form).
        routing_cache_path: Optional persisted routing-result cache
            (see :class:`~repro.mapping.engine.RoutingCache`), warm-loaded
            by every routing engine; missing files are ignored.
        allocation_strategy: Algorithm 3 search strategy of the
            ``eff-full`` / ``eff-rd-bus`` configurations; the paper-exact
            ``bfs-greedy`` by default.  ``coordinate-descent`` runs the
            whole sweep as that ablation.
        design_cache_path: Optional persisted design-stage cache (see
            :class:`~repro.design.engine.DesignCache`) of Algorithm 3
            frequency plans, warm-loaded by every design engine.
        checkpoint_path: Optional sweep checkpoint store (see
            :class:`~repro.evaluation.checkpoint.SweepCheckpoint`): workers
            record every completed task into it.
        resume: Skip sweep tasks already recorded in the checkpoint,
            looked up by content digests of each task's identity and
            result-affecting fields.  Requires ``checkpoint_path``.
    """

    yield_trials: int = 10_000
    sigma_ghz: float = DEFAULT_SIGMA_GHZ
    yield_seed: int = 7
    frequency_local_trials: int = 2000
    random_bus_seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    routing: SabreParameters = DEFAULT_EVALUATION_ROUTING
    routing_cache_path: Optional[str] = None
    allocation_strategy: str = "bfs-greedy"
    design_cache_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        # Fail fast — at resolution time, before any worker forks — on
        # anything the evaluation layer would reject later.
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (bool not in types and isinstance(value, bool)):
                raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, "
                                 f"got {value!r}")
        for name in ("yield_trials", "frequency_local_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        try:
            seeds = tuple(operator.index(seed) for seed in self.random_bus_seeds)
        except TypeError:
            raise ValueError("random_bus_seeds must be a sequence of ints, "
                             f"got {self.random_bus_seeds!r}") from None
        object.__setattr__(self, "random_bus_seeds", seeds)
        if isinstance(self.routing, Mapping):
            try:
                object.__setattr__(self, "routing", SabreParameters(**dict(self.routing)))
            except TypeError as error:
                raise ValueError(f"invalid routing parameters: {error}") from None
        if not isinstance(self.routing, SabreParameters):
            raise ValueError(f"routing must be SabreParameters, got {self.routing!r}")
        resolve_strategy(self.allocation_strategy)
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume=True requires checkpoint_path")

    # -- canonical form + digest -------------------------------------------

    def canonical(self) -> "RuntimeConfig":
        """This config with every store path canonicalized."""
        updates = {
            name: canonical_store_path(getattr(self, name))
            for name in _PATH_FIELDS
            if getattr(self, name) is not None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON-serializable form digest() hashes."""
        data = dataclasses.asdict(self)
        data["routing"] = dataclasses.asdict(self.routing)
        data["random_bus_seeds"] = list(self.random_bus_seeds)
        for name in _PATH_FIELDS:
            data[name] = canonical_store_path(data[name])
        return data

    def digest(self) -> str:
        """SHA-256 content digest of the canonical payload.

        Store paths are canonicalized first, so relative/symlink aliases
        of the same cache file digest identically — the process-level
        session registry keys on this.
        """
        encoded = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON (non-canonicalized paths, as configured)."""
        data = dataclasses.asdict(self)
        data["routing"] = dataclasses.asdict(self.routing)
        data["random_bus_seeds"] = list(self.random_bus_seeds)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RuntimeConfig":
        """Build a config from a JSON-decoded mapping; unknown keys fail."""
        names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown runtime-config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "RuntimeConfig":
        """Load a ``--runtime-config`` JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"runtime config {path} must be a JSON object")
        return cls.from_mapping(data)
