"""The routing engine: per-topology router reuse plus result memoization.

Every evaluation point of the paper's Figure 10 grid routes a benchmark
onto a candidate architecture, and sweeps revisit the same chips (and
often the same (circuit, chip) pairs) many times.  Chips that differ only
in name or frequencies — for example a design's 5-frequency and optimized
frequency variants, and its layout-only sibling — pose the same routing
problem.  Two layers of reuse make that cheap:

* **Router reuse** — a :class:`RoutingEngine` keeps one
  :class:`~repro.mapping.sabre.SabreRouter` (and therefore one BFS
  distance matrix and one candidate-edge table) per distinct routing
  topology, instead of rebuilding them on every :func:`route_circuit`
  call, and one forward and one reverse
  :class:`~repro.circuit.dag.PackedDAG` per circuit, since a circuit
  routes onto many candidate architectures.
* **Result memoization** — a :class:`RoutingCache` memoizes completed
  :class:`~repro.mapping.router.MappingResult` objects under a
  ``(circuit, topology, parameters, profile)`` key
  (:meth:`RoutingEngine.cache_key`).  Each returned copy carries the
  requesting chip's name.

Both layers are *transparent*: routing is a pure deterministic function of
the key, so cache hits return exactly what a fresh computation would, and
parallel sweeps stay byte-identical for any worker count no matter how
hits and misses distribute across processes.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import persistence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import PackedDAG
from repro.hardware.architecture import Architecture
from repro.mapping.initial import initial_mapping
from repro.mapping.sabre import SabreParameters, SabreRouter
from repro.profiling.profiler import CircuitProfile, profile_circuit
from repro.runtime.metrics import global_metrics

_metrics = global_metrics()

#: Default bound on memoized routing results per engine.  Entries retain
#: the full routed circuit only when a caller asked for it
#: (``keep_routed_circuit=True``); sweep-style counts-only routings cache
#: compact results.
DEFAULT_CACHE_ENTRIES = 256


def circuit_cache_key(circuit: QuantumCircuit) -> Tuple:
    """Value identity of a circuit: register size, name, length, content digest.

    The name participates because it is recorded in the
    :class:`~repro.mapping.router.MappingResult` (and in the routed
    circuit's own name), so two same-gate circuits with different names
    must not share a memoized result.  The gate sequence itself enters via
    :meth:`~repro.circuit.circuit.QuantumCircuit.content_hash` — a cached
    digest — rather than the full gate tuple, so building and comparing
    keys stays O(1) per route call instead of re-hashing thousands of gate
    objects every lookup.  Hash collisions are harmless: cache entries
    carry the exact gate tuple and the engine confirms it on every hit.
    """
    return (circuit.num_qubits, circuit.name, len(circuit), circuit.content_hash())


@dataclass
class _CacheEntry:
    """A memoized routing: the exact gate tuple plus the result.

    ``gates`` guards against 64-bit content-hash collisions in the cache
    key: a hit is only served after confirming the stored tuple matches
    the requesting circuit's (identity check first — free for the common
    same-circuit-object case — full comparison otherwise).  Entries
    restored from a persisted cache carry ``gates=None`` — the gate
    tuples are not written to disk, so loaded hits trust the content
    digest in the key (see :meth:`RoutingCache.save`).
    """

    gates: Optional[Tuple]
    result: object


def profile_cache_key(profile: Optional[CircuitProfile]) -> Optional[int]:
    """Value identity of a caller-supplied profile (None for no profile).

    The profile drives the initial placement, so a caller-supplied
    profile participates in routing cache keys by content digest over
    every field the placement reads (strengths, degree order, coupling
    edges): a profile that slips past the engine's cheap identity guard
    can only ever poison (or hit) its own entry, never the profile-less
    one.  SHA-256 rather than the salted built-in ``hash()``, so the key
    survives a save/load round trip into another process.
    """
    if profile is None:
        return None
    digest = hashlib.sha256()
    digest.update(profile.strength_matrix.tobytes())
    digest.update(str(tuple(profile.degree_list)).encode())
    digest.update(str(tuple(profile.coupled_pairs())).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def architecture_cache_key(architecture: Architecture) -> Tuple:
    """Value identity of an architecture as far as routing is concerned.

    Routing reads only the physical qubit set, the coupling graph and the
    recorded pseudo-mapping (it seeds the initial placement).  The name
    and the frequencies are deliberately excluded, so chips that differ
    only in them share routers and cached results;
    :meth:`RoutingEngine.route` stamps the requesting chip's name on each
    result it returns.
    """
    return (
        tuple(architecture.qubits),
        tuple(architecture.coupling_edges()),
        tuple(sorted(architecture.logical_to_physical.items())),
    )


class RoutingCache:
    """A bounded, deterministic LRU memo of completed routing results.

    Keys are :meth:`RoutingEngine.cache_key` tuples; values are the
    engine's cache entries (exact gate tuple + a
    :class:`~repro.mapping.router.MappingResult` whose ``routed_circuit``
    is present only if the producing call requested it).  Eviction is
    least-recently-used with a fixed bound, so long sweeps cannot grow
    memory without limit.
    """

    #: Persisted-file envelope (see :mod:`repro.persistence`).
    FORMAT = "repro-routing-cache"
    VERSION = 1

    def __init__(self, max_entries: Optional[int] = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple, sufficient=None):
        """The memoized result for ``key``, or None (counts hit/miss stats).

        An entry rejected by the ``sufficient`` predicate counts as a
        *miss* — the caller will recompute in full, so reporting a hit
        would overstate cache effectiveness.
        """
        entry = self._entries.get(key)
        if entry is None or (sufficient is not None and not sufficient(entry)):
            self.misses += 1
            _metrics.increment("routing/cache/misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _metrics.increment("routing/cache/hits")
        return entry

    def put(self, key: Tuple, result) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    # -- persistence ----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> int:
        """Persist the memoized routings to a counts-only cache store.

        Only the mapping *results* are written — swap counts, gate
        counts, and the initial/final mappings — never routed circuits or
        gate tuples, so the store stays small and sweep-scale caches
        persist in milliseconds.  Returns the number of entries written.

        The store is an image of the in-memory cache, so it holds at most
        ``max_entries`` results; writers wanting to extend an existing
        store rather than replace it should use :meth:`merge_save`.  The
        write is one SQLite transaction, so readers never observe a
        half-written image.

        Because the gate tuples are not persisted, results served from a
        loaded cache are trusted on the 64-bit circuit content digest in
        the key alone (the in-memory collision guard cannot re-confirm
        them).  A digest collision between two same-length, same-name,
        same-width circuits is the only way a loaded entry can be wrong.
        """
        return persistence.write_cache_file(
            path, self.FORMAT, self.VERSION, self._serialize_entries(),
            key_of=self._record_key, kind="routing cache",
        )

    def _serialize_entries(self) -> list:
        """The in-memory entries as persistable counts-only records."""
        entries = []
        for key, entry in self._entries.items():
            circuit_key, arch_key, parameters, profile_key = key
            result = entry.result
            entries.append({
                "circuit_key": list(circuit_key),
                "architecture_key": persistence.listify(arch_key),
                "parameters": asdict(parameters),
                "profile_key": profile_key,
                "result": {
                    "circuit_name": result.circuit_name,
                    "architecture_name": result.architecture_name,
                    "original_gates": result.original_gates,
                    "original_two_qubit_gates": result.original_two_qubit_gates,
                    "num_swaps": result.num_swaps,
                    "initial_mapping": {str(k): v for k, v in result.initial_mapping.items()},
                    "final_mapping": {str(k): v for k, v in result.final_mapping.items()},
                },
            })
        return entries

    @staticmethod
    def _record_key(record: dict) -> Tuple:
        """A serialized record's identity (file-level merge key)."""
        return (
            persistence.tuplify(record["circuit_key"]),
            _topology_key(record["architecture_key"]),
            tuple(sorted(record["parameters"].items())),
            record["profile_key"],
        )

    def load(self, path: Union[str, Path], missing_ok: bool = False) -> int:
        """Merge a persisted cache store into this cache.

        Loaded entries are counts-only (no routed circuit): route calls
        with ``keep_routed_circuit=True`` still recompute and upgrade
        them.  Existing in-memory entries win over stored entries under
        the same key.  Another cache kind's store is rejected with a
        clear error; an unknown schema version or an unreadable file
        loads as cold with a warning.  Returns the number of merged
        entries still resident afterwards — on a bounded cache, a store
        larger than ``max_entries`` merges only its tail, and the count
        reflects that rather than masking the eviction.  ``missing_ok``
        turns a nonexistent store into a no-op returning 0.
        """
        from repro.mapping.router import MappingResult

        records = persistence.read_cache_entries(
            path, self.FORMAT, self.VERSION, missing_ok=missing_ok,
            kind="routing cache",
        )
        if records is None:
            return 0

        def decode(record: dict) -> Tuple:
            key = (
                tuple(record["circuit_key"]),
                _topology_key(record["architecture_key"]),
                SabreParameters(**record["parameters"]),
                record["profile_key"],
            )
            data = record["result"]
            result = MappingResult(
                circuit_name=data["circuit_name"],
                architecture_name=data["architecture_name"],
                original_gates=data["original_gates"],
                original_two_qubit_gates=data["original_two_qubit_gates"],
                num_swaps=data["num_swaps"],
                initial_mapping={int(k): v for k, v in data["initial_mapping"].items()},
                final_mapping={int(k): v for k, v in data["final_mapping"].items()},
                routed_circuit=None,
            )
            return key, _CacheEntry(gates=None, result=result)

        return persistence.merge_loaded(self, records, decode)

    def merge_save(self, path: Union[str, Path]) -> int:
        """Extend the persisted store with this cache's entries, concurrency-safe.

        A store-level union in one transaction: the store keeps every
        entry it already holds (this cache's entries win under equal
        keys) plus everything memoized here — it never shrinks to this
        cache's LRU bound, and concurrent workers sharing one cache path
        cannot drop each other's results.  Returns the number of entries
        the store holds afterwards.
        """
        return persistence.union_merge_save(
            path, self.FORMAT, self.VERSION, self._serialize_entries(),
            self._record_key, kind="routing cache",
        )


class RoutingEngine:
    """Routes circuits onto architectures with per-topology state reuse.

    One engine holds one :class:`SabreParameters` configuration.  Use
    :meth:`route` exactly like :func:`~repro.mapping.router.route_circuit`;
    repeated calls against the same topology (qubits, coupling edges and
    recorded pseudo-mapping; see :func:`architecture_cache_key`) share the
    router (distance matrix, candidate-edge tables), and repeated calls
    with the same circuit *and* topology return memoized results under
    the requesting chip's name.

    Args:
        parameters: Router tuning parameters shared by every route call.
        cache: Optional externally owned :class:`RoutingCache` (a fresh
            bounded cache is created when omitted).
    """

    def __init__(
        self,
        parameters: Optional[SabreParameters] = None,
        cache: Optional[RoutingCache] = None,
    ) -> None:
        self.parameters = parameters or SabreParameters()
        self.cache = cache if cache is not None else RoutingCache()
        # Routers keyed by topology, LRU-bounded like the
        # sibling tables so a worker sweeping many candidate architectures
        # cannot grow distance matrices and edge tables without limit.
        self._routers: "OrderedDict[Tuple, SabreRouter]" = OrderedDict()
        # Packed DAGs keyed by circuit identity: one circuit routes onto
        # many candidate architectures per evaluation, and its forward and
        # reverse packs are the same for all of them.  Each entry is
        # (gate tuple, forward pack, reverse pack or None).
        self._packs: "OrderedDict[Tuple, Tuple[Tuple, PackedDAG, Optional[PackedDAG]]]" = (
            OrderedDict()
        )

    def router_for(self, architecture: Architecture) -> SabreRouter:
        """The shared router (and distance matrix) for an architecture's topology (bounded LRU).

        The router is built for the first chip of its topology to be
        requested, so callers take names from their own architecture, not
        from ``router.architecture``.
        """
        key = architecture_cache_key(architecture)
        router = self._routers.get(key)
        if router is None:
            router = SabreRouter(architecture, self.parameters)
            self._routers[key] = router
        self._routers.move_to_end(key)
        while len(self._routers) > 128:
            self._routers.popitem(last=False)
        return router

    def _packs_for(
        self, circuit: QuantumCircuit, circuit_key: Tuple
    ) -> Tuple[PackedDAG, Optional[PackedDAG]]:
        """The shared forward and reverse packs of a circuit (bounded LRU).

        The reverse pack exists only when the engine routes bidirectional
        passes.  Like the result cache, a stored entry is only served after
        its gate tuple is confirmed against the requesting circuit's
        (identity first, full comparison on mismatch): a content-hash
        collision in ``circuit_key`` rebuilds instead of routing the wrong
        circuit's pack.
        """
        gates = circuit.gates
        entry = self._packs.get(circuit_key)
        if entry is None or (entry[0] is not gates and entry[0] != gates):
            reverse = None
            if self.parameters.passes > 1:
                reverse = PackedDAG.from_circuit(circuit, reverse=True)
            entry = (gates, PackedDAG.from_circuit(circuit), reverse)
            self._packs[circuit_key] = entry
        self._packs.move_to_end(circuit_key)
        while len(self._packs) > 32:
            self._packs.popitem(last=False)
        return entry[1], entry[2]

    def cache_key(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        profile: Optional[CircuitProfile] = None,
    ) -> Tuple:
        """The result-cache key of routing ``circuit`` onto ``architecture``.

        ``(circuit key, topology key, parameters, profile key)``; the only
        place the key is built.
        """
        return (
            circuit_cache_key(circuit),
            architecture_cache_key(architecture),
            self.parameters,
            profile_cache_key(profile),
        )

    def route(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        profile: Optional[CircuitProfile] = None,
        keep_routed_circuit: bool = True,
    ):
        """Map ``circuit`` onto ``architecture`` (memoized; see ``route_circuit``).

        Args:
            circuit: Logical circuit in the CNOT + single-qubit basis.
            architecture: Target hardware architecture.
            profile: Optional precomputed profile **of this circuit** (saves
                recomputation when the caller already profiled it).  A
                profile whose identifying counts don't match the circuit is
                rejected, and a supplied profile participates in the cache
                key by content digest, so it can never poison the
                profile-less entry.
            keep_routed_circuit: Set to False to keep only the counts — the
                returned result and the cache entry both drop the physical
                circuit, so sweep-scale memoization stays light.  A later
                call with True on a counts-only entry recomputes (and
                upgrades the entry).

        The result (and the routed circuit's ``"<circuit>@<chip>"`` name)
        names ``architecture`` even when the route was computed for, or
        loaded under, another chip of the same topology.
        """
        from repro.mapping.router import MappingResult, verify_routing

        # O(1) identity checks only — this guard runs on every route call,
        # including cache hits.
        if profile is not None and (
            profile.circuit_name != circuit.name
            or profile.num_qubits != circuit.num_qubits
            or profile.num_gates != len(circuit)
        ):
            raise ValueError(
                f"profile {profile.circuit_name!r} does not describe circuit "
                f"{circuit.name!r}; pass the circuit's own profile (or None)"
            )
        key = self.cache_key(circuit, architecture, profile)
        gates = circuit.gates

        def sufficient(entry) -> bool:
            # entry.gates is None for entries restored from a persisted
            # cache (digest-trusted); in-memory entries carry the exact
            # tuple and are confirmed against the requesting circuit.
            if entry.gates is not None and entry.gates is not gates and entry.gates != gates:
                return False  # content-hash collision; recompute under this key
            return entry.result.routed_circuit is not None or not keep_routed_circuit

        cached = self.cache.lookup(key, sufficient)
        if cached is not None:
            return _result_copy(cached.result, architecture.name, keep_routed_circuit)

        compute_start = time.perf_counter()
        router = self.router_for(architecture)
        if not router.distances.is_connected():
            raise ValueError(
                f"architecture {architecture.name!r} has a disconnected coupling graph; "
                "every benchmark in the paper is mapped onto connected chips"
            )
        profile = profile or profile_circuit(circuit)
        mapping = initial_mapping(profile, architecture, router.distances)
        forward, reverse = self._packs_for(circuit, key[0])
        log = router.route_packed(forward, reverse, mapping)
        verify_routing(circuit, log, architecture, log.initial_mapping)
        routed = None
        if keep_routed_circuit:
            routed = router.materialize(circuit, log, architecture.name)
            verify_routing(circuit, routed, architecture, log.initial_mapping)
        _metrics.observe("routing/route", time.perf_counter() - compute_start)
        _metrics.increment("routing/routes")
        _metrics.increment("routing/swaps", log.num_swaps)
        result = MappingResult(
            circuit_name=circuit.name,
            architecture_name=architecture.name,
            original_gates=len(circuit),
            original_two_qubit_gates=forward.num_two_qubit,
            num_swaps=log.num_swaps,
            initial_mapping=dict(log.initial_mapping),
            final_mapping=dict(log.final_mapping),
            routed_circuit=routed,
        )
        self.cache.put(key, _CacheEntry(gates=gates, result=result))
        return _result_copy(result, architecture.name, keep_routed_circuit)


def _topology_key(encoded: list) -> Tuple:
    """A persisted ``architecture_key`` as an :func:`architecture_cache_key`.

    Records written while the key still began with the chip's name carry
    four elements; dropping the name keeps those stores warm.
    """
    key = persistence.tuplify(encoded)
    return key[1:] if isinstance(key[0], str) else key


def _result_copy(result, architecture_name: str, keep_routed_circuit: bool):
    """A caller-owned copy of a cached result, named for the requesting chip.

    Mappings and the routed circuit are detached from the cache entry.
    """
    routed = None
    if keep_routed_circuit:
        routed = result.routed_circuit.copy(name=f"{result.circuit_name}@{architecture_name}")
    return replace(
        result,
        architecture_name=architecture_name,
        initial_mapping=dict(result.initial_mapping),
        final_mapping=dict(result.final_mapping),
        routed_circuit=routed,
    )
