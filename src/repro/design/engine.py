"""The design engine: staged, digest-keyed memoization of the design flow.

The paper's design flow is a chain of four pure stages —

    profile  ->  layout (Alg 1)  ->  bus selection (Alg 2)  ->  frequency
                                                                allocation (Alg 3)

— and a Figure 10 evaluation runs that chain dozens of times per
benchmark with heavily overlapping inputs: every configuration of a
benchmark shares the profile and the layout, a bus-count series shares
one greedy (or seeded-random) selection sequence, and random-bus seeds
frequently agree on the selected squares.  The :class:`DesignEngine`
mirrors the :class:`~repro.mapping.engine.RoutingEngine` pattern: each
stage is memoized independently under a key derived from the *content*
of its inputs, so a stage re-runs only when its own inputs changed.

Stage keys:

* **profile** — the circuit's value identity (register size, name, gate
  count, content digest), with the exact gate tuple stored alongside the
  result to guard against digest collisions.
* **layout** — a SHA-256 digest of the profile content the layout reads
  (register size, strength matrix, degree list).  Algorithm 1 is a
  deterministic function of exactly those fields.
* **bus selection** — the layout digest plus the selection strategy (and
  seed, for random selection).  Both Algorithm 2's greedy and the seeded
  random baseline are *prefix-stable*: the squares selected under a
  budget of ``k`` buses are the first ``k`` squares selected under any
  larger budget, so one full-length selection per key serves every bus
  count of a series.
* **frequency allocation** — the architecture's collision structure
  (qubit set, coupling edges, centre qubit) plus the allocator
  configuration (sigma, trials, seed, refinement passes, strategy).
  Architectures that differ only in name — or in how they were produced —
  share one Algorithm 3 run.

All stages are transparent caches over pure deterministic functions:
results are bit-identical with or without hits, which keeps parallel
sweeps byte-identical for any worker count.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import persistence

from repro.circuit.circuit import QuantumCircuit
from repro.design.bus_selection import (
    BusSelectionResult,
    select_four_qubit_buses,
    select_random_buses,
)
from repro.design.frequency_allocation import FrequencyAllocator
from repro.design.layout import LayoutResult, design_layout
from repro.hardware.architecture import Architecture
from repro.hardware.frequency import DEFAULT_SIGMA_GHZ, five_frequency_scheme
from repro.profiling.profiler import CircuitProfile, profile_circuit
from repro.runtime.metrics import global_metrics

_metrics = global_metrics()

#: Default bound on memoized entries per stage.  Evaluation sweeps touch a
#: handful of benchmarks and a few dozen distinct architectures per
#: benchmark; the bound only exists so unbounded exploratory sessions
#: cannot grow layouts and frequency plans without limit.
DEFAULT_STAGE_ENTRIES = 256


class BusStrategy(enum.Enum):
    """How 4-qubit bus squares are chosen."""

    FILTERED_WEIGHT = "filtered_weight"
    RANDOM = "random"


class FrequencyStrategy(enum.Enum):
    """How qubit frequencies are designed."""

    OPTIMIZED = "optimized"
    FIVE_FREQUENCY = "five_frequency"


@dataclass
class DesignOptions:
    """Knobs of the design flow.

    Attributes:
        bus_strategy: Filtered-weight greedy (Algorithm 2) or random selection.
        frequency_strategy: Centre-out yield-driven search (Algorithm 3) or
            IBM's regular 5-frequency scheme.
        sigma_ghz: Fabrication precision assumed during frequency allocation.
        local_trials: Monte Carlo trials per candidate in Algorithm 3.
        random_bus_seed: Seed for the random bus selection baseline.
        frequency_seed: Seed for the frequency allocator's local simulations.
        frequency_refinement_passes: Coordinate-descent sweeps after the
            BFS frequency assignment.  The default of 0 reproduces the
            paper's Algorithm 3 exactly; non-zero values implement the
            global-optimization extension the paper's Discussion suggests.
        allocation_strategy: Algorithm 3 search strategy name (see
            :data:`~repro.design.frequency_allocation.ALLOCATION_STRATEGIES`).
    """

    bus_strategy: BusStrategy = BusStrategy.FILTERED_WEIGHT
    frequency_strategy: FrequencyStrategy = FrequencyStrategy.OPTIMIZED
    sigma_ghz: float = DEFAULT_SIGMA_GHZ
    local_trials: int = 2000
    random_bus_seed: Optional[int] = None
    frequency_seed: int = 2020
    frequency_refinement_passes: int = 0
    allocation_strategy: str = "bfs-greedy"


class StageCache:
    """A bounded, deterministic LRU memo for one design stage.

    The same shape as :class:`~repro.mapping.engine.RoutingCache`: keyed
    lookups count hits and misses, insertion evicts least-recently-used
    entries beyond ``max_entries``, and cached values are exactly what a
    fresh computation would produce.
    """

    def __init__(self, name: str, max_entries: Optional[int] = DEFAULT_STAGE_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _metrics.increment(f"design/{self.name}/misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _metrics.increment(f"design/{self.name}/hits")
        return entry

    def put(self, key: Tuple, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


class DesignCache(StageCache):
    """The frequency-allocation stage cache, persistable across processes.

    Mirrors :class:`~repro.mapping.engine.RoutingCache`: the memoized
    Algorithm 3 frequency plans — by far the most expensive stage of the
    design flow — round-trip through a versioned, counts-only cache store
    (a few floats per qubit; never simulators or noise tensors), so a
    second session, or every worker of a ``sweep --jobs N``, re-derives
    a warm evaluation grid's architectures without a single Monte Carlo
    call.

    Keys are *full content*, not digests — the architecture's qubit set,
    coupling edges and centre qubit plus the complete allocator
    configuration — so a loaded entry can never be served to a
    near-miss input; there is no collision guard to re-confirm.  Entries
    are exactly what a fresh :class:`FrequencyAllocator` run produces,
    so hits are bit-identical to recomputation and parallel sweeps stay
    byte-identical for any worker count, warm or cold.
    """

    #: Persisted-file envelope (see :mod:`repro.persistence`).
    FORMAT = "repro-design-cache"
    VERSION = 1

    def __init__(self, max_entries: Optional[int] = DEFAULT_STAGE_ENTRIES) -> None:
        super().__init__("frequency", max_entries)

    # -- persistence ----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> int:
        """Persist the memoized frequency plans to a cache store.

        The store is an image of the in-memory stage cache (at most
        ``max_entries`` plans); use :meth:`merge_save` to extend an
        existing store instead of replacing it.  The write is one
        SQLite transaction, so concurrent readers never observe a
        half-written image.  Returns the number of entries written.
        """
        return persistence.write_cache_file(
            path, self.FORMAT, self.VERSION, self._serialize_entries(),
            key_of=self._record_key, kind="design cache",
        )

    def _serialize_entries(self) -> list:
        """The in-memory frequency plans as persistable records."""
        return [
            {
                "key": persistence.listify(key),
                "frequencies": {str(qubit): value for qubit, value in plan.items()},
            }
            for key, plan in self._entries.items()
        ]

    @staticmethod
    def _record_key(record: dict) -> Tuple:
        """A serialized record's identity (file-level merge key)."""
        return persistence.tuplify(record["key"])

    def load(self, path: Union[str, Path], missing_ok: bool = False) -> int:
        """Merge a persisted cache store into this cache.

        Existing in-memory entries win over stored entries under the
        same key.  Another cache kind's store is rejected with a clear
        error; an unknown schema version or an unreadable file loads as
        cold with a warning.  Returns the number of merged entries still
        resident afterwards — on a bounded cache, a store larger than
        ``max_entries`` merges only its tail, and the count reflects that
        rather than masking the eviction.  ``missing_ok`` turns a
        nonexistent store into a no-op returning 0.
        """
        records = persistence.read_cache_entries(
            path, self.FORMAT, self.VERSION, missing_ok=missing_ok,
            kind="design cache",
        )
        if records is None:
            return 0

        def decode(record: dict) -> Tuple:
            plan = {
                int(qubit): float(value)
                for qubit, value in record["frequencies"].items()
            }
            return self._record_key(record), plan

        return persistence.merge_loaded(self, records, decode)

    def merge_save(self, path: Union[str, Path]) -> int:
        """Extend the persisted store with this cache's entries, concurrency-safe.

        A store-level union in one transaction: the store keeps every
        plan it already holds (this cache's entries win under equal
        keys) plus everything memoized here — it never shrinks to this
        cache's LRU bound, so a long sweep's cache store stays complete
        even when its grid outgrows ``max_entries``, and concurrent
        workers sharing one cache path cannot drop each other's results.
        Returns the number of entries the store holds afterwards.
        """
        return persistence.union_merge_save(
            path, self.FORMAT, self.VERSION, self._serialize_entries(),
            self._record_key, kind="design cache",
        )


def circuit_design_key(circuit: QuantumCircuit) -> Tuple:
    """Value identity of a circuit as far as profiling is concerned.

    The name participates because it is recorded in the profile (and
    through it in mapping results); the gate sequence enters via the
    circuit's cached content digest.  Digest collisions are guarded by
    the exact gate tuple stored with each profile entry.
    """
    return (circuit.num_qubits, circuit.name, len(circuit), circuit.content_hash())


def profile_layout_digest(profile: CircuitProfile) -> str:
    """SHA-256 digest of the profile content the layout stage consumes.

    Algorithm 1 reads the register size, the coupling strength matrix and
    the degree list (the coupling graph is the strength matrix's non-zero
    structure), so profiles agreeing on those fields produce identical
    layouts — even across differently named circuits.
    """
    digest = hashlib.sha256()
    digest.update(str(profile.num_qubits).encode())
    digest.update(profile.strength_matrix.tobytes())
    digest.update(str(tuple(profile.degree_list)).encode())
    return digest.hexdigest()


def architecture_collision_key(architecture: Architecture) -> Tuple:
    """Value identity of an architecture as far as Algorithm 3 is concerned.

    Frequency allocation reads the qubit set, the coupling graph, and the
    lattice's centre qubit (the BFS start); names and any pre-existing
    frequencies are deliberately excluded so that identical connection
    designs share one allocation.
    """
    return (
        tuple(architecture.qubits),
        tuple(architecture.coupling_edges()),
        architecture.lattice.central_qubit(),
    )


@dataclass
class _ProfileEntry:
    """A memoized profile plus the exact gate tuple that produced it."""

    gates: Tuple
    profile: CircuitProfile


class DesignEngine:
    """Runs the design flow with independently memoized stages.

    One engine serves any number of circuits and option sets — every
    stage key embeds whatever configuration the stage reads, so a single
    shared engine per process (or per sweep) is both safe and maximally
    effective.

    Args:
        max_entries: Bound on memoized entries per stage (None = unbounded).
        frequency_cache: Optional externally owned :class:`DesignCache`
            for the frequency-allocation stage (a fresh bounded cache is
            created when omitted).  Passing one shares persisted
            Algorithm 3 plans across engines, exactly as
            :class:`~repro.mapping.engine.RoutingEngine` shares a
            :class:`~repro.mapping.engine.RoutingCache`.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_STAGE_ENTRIES,
        frequency_cache: Optional[DesignCache] = None,
    ) -> None:
        self._profiles = StageCache("profile", max_entries)
        self._layouts = StageCache("layout", max_entries)
        self._selections = StageCache("bus-selection", max_entries)
        self._frequencies = (
            frequency_cache if frequency_cache is not None
            else DesignCache(max_entries)
        )

    @property
    def frequency_cache(self) -> DesignCache:
        """The persistable frequency-stage cache (see :class:`DesignCache`).

        Use ``engine.frequency_cache.load(path, missing_ok=True)`` to
        warm-start a session and ``engine.frequency_cache.merge_save(path)``
        to persist its Algorithm 3 plans at the end of one.
        """
        return self._frequencies

    # -- stages ----------------------------------------------------------------

    def profile(self, circuit: QuantumCircuit) -> CircuitProfile:
        """The circuit's profile (stage 0), memoized by content digest."""
        key = circuit_design_key(circuit)
        gates = circuit.gates
        entry = self._profiles.lookup(key)
        if entry is not None:
            if entry.gates is gates:
                return entry.profile
            if entry.gates == gates:
                # Adopt the requesting circuit's gate tuple so repeated
                # calls with this object take the identity fast path: the
                # design flow profiles the same circuit object many times
                # per series, and one O(n) confirmation per new object is
                # all the digest-collision guard needs.
                entry.gates = gates
                return entry.profile
        profile = profile_circuit(circuit)
        self._profiles.put(key, _ProfileEntry(gates=gates, profile=profile))
        return profile

    def layout(self, circuit: QuantumCircuit) -> LayoutResult:
        """The circuit's qubit layout (Algorithm 1), via the profile stage."""
        return self.layout_for(self.profile(circuit))

    def layout_for(self, profile: CircuitProfile) -> LayoutResult:
        """The layout of an already profiled circuit, memoized by profile digest."""
        key = (profile_layout_digest(profile),)
        layout = self._layouts.lookup(key)
        if layout is None:
            layout = design_layout(profile)
            self._layouts.put(key, layout)
        return layout

    def bus_selection(
        self,
        circuit: QuantumCircuit,
        max_buses: Optional[int],
        options: Optional[DesignOptions] = None,
    ) -> BusSelectionResult:
        """The bus selection (Algorithm 2) under at most ``max_buses`` buses.

        Selections are prefix-stable in the bus budget, so the engine
        memoizes one *full-length* selection per (layout, strategy, seed)
        and serves every budget as a prefix of it.  ``max_buses=None``
        selects as many squares as the prohibition constraint allows.
        """
        if max_buses is not None and max_buses < 0:
            raise ValueError("the number of 4-qubit buses cannot be negative")
        options = options or DesignOptions()
        profile = self.profile(circuit)
        layout = self.layout_for(profile)
        full = self._full_selection(profile, layout, options)
        if full is None:
            # Unseeded random selection is intentionally non-deterministic:
            # compute directly, bypassing the cache.
            if max_buses is None:
                max_buses = sum(1 for _ in layout.lattice.squares(min_occupied=3))
            return select_random_buses(
                layout.lattice, max_buses, seed=options.random_bus_seed
            )
        limit = len(full.selected_squares) if max_buses is None else int(max_buses)
        return BusSelectionResult(
            selected_squares=list(full.selected_squares[:limit]),
            weights=dict(full.weights),
            max_available=full.max_available,
        )

    def _full_selection(
        self, profile: CircuitProfile, layout: LayoutResult, options: DesignOptions
    ) -> Optional[BusSelectionResult]:
        """The memoized full-length selection sequence (None when uncacheable)."""
        layout_digest = profile_layout_digest(profile)
        if options.bus_strategy is BusStrategy.RANDOM:
            if options.random_bus_seed is None:
                return None
            key = ("random", layout_digest, options.random_bus_seed)
            full = self._selections.lookup(key)
            if full is None:
                num_candidates = sum(1 for _ in layout.lattice.squares(min_occupied=3))
                full = select_random_buses(
                    layout.lattice, num_candidates, seed=options.random_bus_seed
                )
                self._selections.put(key, full)
            return full
        key = ("filtered", layout_digest)
        full = self._selections.lookup(key)
        if full is None:
            full = select_four_qubit_buses(layout.lattice, profile, None)
            self._selections.put(key, full)
        return full

    def realized_bus_count(
        self,
        circuit: QuantumCircuit,
        max_buses: int,
        options: Optional[DesignOptions] = None,
    ) -> int:
        """How many 4-qubit buses a budget of ``max_buses`` actually realizes.

        Cheap (selection-stage only): callers generating bus-count series
        use it to skip budgets that would duplicate the previous design
        *before* paying for frequency allocation.  Only meaningful for
        deterministic selections — unseeded random selection redraws on
        every call, so its count need not match a later design's.
        """
        return len(self.bus_selection(circuit, max_buses, options).selected_squares)

    def max_four_qubit_buses(
        self, circuit: QuantumCircuit, options: Optional[DesignOptions] = None
    ) -> int:
        """The largest number of 4-qubit buses the generated layout can host.

        Always derived from the deterministic filtered-weight selection,
        matching the pre-engine flow where ``max_four_qubit_buses``
        ignored the configured bus strategy.
        """
        del options  # series size does not depend on the selection knobs
        return self.bus_selection(circuit, None, DesignOptions()).max_available

    def frequencies_for(
        self, architecture: Architecture, options: Optional[DesignOptions] = None
    ) -> Dict[int, float]:
        """The architecture's frequency plan under ``options`` (stage 4).

        Optimized (Algorithm 3) plans are memoized by the architecture's
        collision structure; the 5-frequency scheme is computed directly
        (it is a closed-form pattern lookup).
        """
        options = options or DesignOptions()
        if options.frequency_strategy is FrequencyStrategy.FIVE_FREQUENCY:
            return five_frequency_scheme(architecture.coordinates())
        # The backend is absent from the key: the C (native) and numpy
        # rankings produce identical plans, so
        # persisted DesignCache files stay valid (and shared) whichever
        # backend generated them.
        key = (
            architecture_collision_key(architecture),
            options.sigma_ghz,
            options.local_trials,
            options.frequency_seed,
            options.frequency_refinement_passes,
            options.allocation_strategy,
        )
        frequencies = self._frequencies.lookup(key)
        if frequencies is None:
            allocator = FrequencyAllocator(
                sigma_ghz=options.sigma_ghz,
                local_trials=options.local_trials,
                seed=options.frequency_seed,
                refinement_passes=options.frequency_refinement_passes,
                strategy=options.allocation_strategy,
            )
            frequencies = allocator.allocate(architecture)
            self._frequencies.put(key, frequencies)
        return dict(frequencies)

    # -- whole designs ---------------------------------------------------------

    def design(
        self,
        circuit: QuantumCircuit,
        max_four_qubit_buses: int = 0,
        options: Optional[DesignOptions] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """One architecture with at most the given number of 4-qubit buses.

        Equivalent to running the full flow from scratch; each stage is
        served from its cache when its inputs are unchanged.  The returned
        architecture is freshly constructed on every call (its frequency
        dict and bus list are caller-owned), so callers may rename or
        mutate it without poisoning the stage caches.
        """
        options = options or DesignOptions()
        selection = self.bus_selection(circuit, max_four_qubit_buses, options)
        layout = self.layout(circuit)
        architecture = Architecture.from_layout(
            name=name or self._default_name(
                circuit, options, len(selection.selected_squares)
            ),
            lattice=layout.lattice,
            four_qubit_squares=selection.selected_squares,
            logical_to_physical=layout.logical_to_physical,
        )
        architecture.frequencies = self.frequencies_for(architecture, options)
        return architecture

    def design_series(
        self,
        circuit: QuantumCircuit,
        max_buses: Optional[int] = None,
        options: Optional[DesignOptions] = None,
    ) -> List[Architecture]:
        """A series of architectures with 0, 1, ..., N 4-qubit buses.

        ``N`` defaults to the maximum number the layout allows, which is
        how the paper generates its per-benchmark Pareto curves.  Bus
        budgets the selection cannot realize (because the prohibition
        constraint ran out of squares) would duplicate the previous
        member; they are skipped *before* frequency allocation runs.
        """
        options = options or DesignOptions()
        limit = (
            self.max_four_qubit_buses(circuit, options)
            if max_buses is None else int(max_buses)
        )
        # Deterministic selections can be sized cheaply before designing;
        # unseeded random selection redraws per call, so the only draw
        # that reflects the built architecture is the design's own — fall
        # back to post-design dedup for it, like the pre-engine flow.
        predictable = not (
            options.bus_strategy is BusStrategy.RANDOM
            and options.random_bus_seed is None
        )
        series: List[Architecture] = []
        previous_count = -1
        for budget in range(limit + 1):
            if predictable:
                realized = self.realized_bus_count(circuit, budget, options)
                if realized == previous_count:
                    continue
                series.append(self.design(circuit, budget, options))
            else:
                architecture = self.design(circuit, budget, options)
                realized = len(architecture.four_qubit_buses())
                if realized == previous_count:
                    continue
                series.append(architecture)
            previous_count = realized
        return series

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage cache statistics (entries / hits / misses)."""
        return {
            cache.name: cache.stats()
            for cache in (
                self._profiles, self._layouts, self._selections, self._frequencies
            )
        }

    def clear(self) -> None:
        for cache in (self._profiles, self._layouts, self._selections, self._frequencies):
            cache.clear()

    @staticmethod
    def _default_name(circuit: QuantumCircuit, options: DesignOptions, num_buses: int) -> str:
        strategy = "rd" if options.bus_strategy is BusStrategy.RANDOM else "eff"
        freq = "5freq" if options.frequency_strategy is FrequencyStrategy.FIVE_FREQUENCY \
            else "optfreq"
        return f"{strategy}_{circuit.name}_{num_buses}x4qbus_{freq}"
