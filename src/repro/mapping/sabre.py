"""SABRE-style look-ahead SWAP routing on packed integer arrays.

This reimplements the heuristic search of Li, Ding, Xie (ASPLOS 2019),
the mapper the paper uses as its performance oracle.  Starting from an
initial logical-to-physical mapping, the router repeatedly:

1. executes every gate in the dependency front layer whose operands are
   mapped to directly coupled physical qubits (single-qubit gates and
   measurements are always executable);
2. when the front layer is blocked, evaluates candidate SWAPs on physical
   couplings adjacent to the blocked gates and applies the one minimizing
   a distance-based cost that mixes the front layer with an *extended set*
   of upcoming two-qubit gates, damped by a decay factor that discourages
   ping-ponging on the same qubits.

**Packed arrays.**  A pass runs on a :class:`~repro.circuit.dag.PackedDAG`
(operand logicals, presorted successors and predecessor counts as flat
integer lists) and keeps the mapping as two lists: the distance-matrix
index of each logical (``pos``) and the logical at each index
(``occupant``).  It builds no ``Gate`` objects.  Candidate
swaps are scored incrementally from *partner lists*: for each logical in
the blocked front and in the extended set, the other operand of each of
its pending gates.  A swap moves positions but never changes which
logicals a pending gate joins, so the lists are built once per execution
event and read through ``pos``; a candidate only rescores the gates of
the two logicals it moves, and distances are small integers, so the base
sums plus deltas are exact.

The pass exists twice.  :meth:`SabreRouter._python_pass` is the
reference; ``sabre_pass`` in the native library of
:mod:`repro.collision.merge_kernel` (the one that holds the screening
kernel) transliterates it over the same arrays in C: the router tables
(flat distance matrix, edges per index, neighbours per index) once per
router, the pack (CSR successors) once per :class:`PackedDAG`.  The
C pass runs while ``REPRO_SCREENING_BACKEND`` resolves to ``native``;
every other backend, and every C error status, runs the Python pass.

**Event log.**  A forward pass records circuit positions as they
execute and each SWAP of physical qubits ``a``, ``b`` as the pair
``~a, ~b``.  :func:`~repro.mapping.router.verify_routing` replays the log
against the circuit's gate list, not against the pack, and
:meth:`SabreRouter.materialize` builds the routed circuit from it only
when a caller asks for one.

**Why swap counts are identical with or without a circuit.**  The
circuit is built after the search, so asking for one cannot change a
decision, and each decision is the one a gate-by-gate router makes: the
front is scanned in circuit order, the extended set is the same
breadth-first walk from the sorted front with the same depth cap, ties
break on the sorted coupling edges, and the livelock escape steps to the
lowest-numbered closer neighbour.  ``tests/golden/contracts.json`` pins
the per-point counts.

Two refinements from the original SABRE work sit behind
:class:`SabreParameters` knobs (:meth:`SabreRouter.route_packed`):

* **bidirectional passes** — route forward, then route the reversed
  circuit starting from the final mapping, then forward again; each pass
  seeds the next pass's initial mapping, letting the mapping adapt to
  both ends of the circuit;
* **seeded restarts** — best-of-k over deterministically perturbed
  initial mappings.

The output records the number of inserted SWAPs; the paper's performance
metric (total post-mapping gate count) charges three CNOTs per SWAP.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import PackedDAG
from repro.circuit.gates import Gate
from repro.collision import merge_kernel
from repro.hardware.architecture import Architecture
from repro.mapping.distance import DistanceMatrix
from repro.utils.rng import deterministic_rng


@dataclass(frozen=True)
class SabreParameters:
    """Tunable parameters of the SWAP search heuristic.

    Attributes:
        extended_set_size: How many upcoming two-qubit gates beyond the
            front layer participate in the cost (look-ahead window).
        extended_set_weight: Relative weight of the extended set term.
        decay_factor: Additional cost multiplier applied to swaps touching
            recently swapped qubits.
        decay_reset_interval: Number of swaps after which decay factors reset.
        max_swaps_per_gate: Safety valve: abort if the router inserts more
            than this many swaps per two-qubit gate (indicates a
            disconnected architecture or a heuristic livelock).
        passes: Number of routing passes in :meth:`SabreRouter.route_packed`.
            Must be odd: passes alternate forward / reverse / forward ...,
            and only forward passes produce a usable routed circuit.
            ``1`` is the classic single forward pass; ``3`` is the
            forward-backward-forward refinement of the SABRE paper.
        restarts: Best-of-k restarts in :meth:`SabreRouter.route_packed`.
            Restart 0 uses the caller's initial mapping verbatim; restarts
            1..k-1 apply seeded random transpositions to it.  The result
            with the fewest swaps (earliest restart on ties) wins.
        seed: Seed of the restart perturbations (ignored for ``restarts=1``).
        stall_threshold: Number of consecutive swaps without executing a
            gate after which the livelock escape hatch kicks in.  ``None``
            derives a threshold from the coupling-graph diameter.
    """

    extended_set_size: int = 20
    extended_set_weight: float = 0.5
    decay_factor: float = 0.001
    decay_reset_interval: int = 5
    max_swaps_per_gate: int = 64
    passes: int = 1
    restarts: int = 1
    seed: int = 11
    stall_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.passes < 1 or self.passes % 2 == 0:
            raise ValueError(
                f"passes must be a positive odd number (forward passes produce results, "
                f"reverse passes only refine the mapping); got {self.passes}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.stall_threshold is not None and self.stall_threshold < 0:
            raise ValueError(f"stall_threshold must be >= 0, got {self.stall_threshold}")


@dataclass
class RoutingLog:
    """The winning forward pass of a routing, as a compact event log.

    Attributes:
        events: Circuit positions in execution order; a SWAP of physical
            qubits ``a`` and ``b`` is the pair ``~a, ~b``.
        num_swaps: SWAPs the pass inserted.
        initial_mapping: logical -> physical mapping the pass started from.
        final_mapping: The mapping after the last event.
    """

    events: List[int]
    num_swaps: int
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]


def swap_mapping(
    logical_to_physical: Dict[int, int],
    physical_to_logical: Dict[int, int],
    phys_a: int,
    phys_b: int,
) -> None:
    """Apply a SWAP of two physical qubits to a mapping and its inverse, in place."""
    logical_a = physical_to_logical.pop(phys_a, None)
    logical_b = physical_to_logical.pop(phys_b, None)
    if logical_a is not None:
        logical_to_physical[logical_a] = phys_b
        physical_to_logical[phys_b] = logical_a
    if logical_b is not None:
        logical_to_physical[logical_b] = phys_a
        physical_to_logical[phys_a] = logical_b


class SabreRouter:
    """Routes a circuit onto an architecture, inserting SWAPs as needed.

    Construction builds the distance matrix and candidate-edge tables, so
    a router is worth reusing across circuits — the
    :class:`~repro.mapping.engine.RoutingEngine` keeps one per distinct
    topology and shares it between chips that differ only in name or
    frequencies, so nothing but :meth:`route` reads ``architecture.name``.

    Args:
        architecture: Target hardware architecture.
        parameters: Optional tuning parameters.
    """

    def __init__(
        self,
        architecture: Architecture,
        parameters: Optional[SabreParameters] = None,
    ) -> None:
        self.architecture = architecture
        self.parameters = parameters or SabreParameters()
        self.distances = DistanceMatrix(architecture)
        # Distance rows as plain nested lists: the scoring loops index a
        # handful of scalar entries per candidate, where list indexing beats
        # numpy scalar indexing by a wide margin.
        self._dist_rows: List[List[float]] = self.distances.array.tolist()
        # Physical qubit of each distance-matrix index.
        self._physical: List[int] = self.distances.qubits
        # Candidate-edge tables, in distance-matrix index space.
        # coupling_edges() is sorted (a, b) with a < b, which fixes the
        # deterministic tie-break order of equal-score candidates.
        index_of = self.distances.index_of
        edges = architecture.coupling_edges()
        self._edge_a: List[int] = [index_of(a) for a, _ in edges]
        self._edge_b: List[int] = [index_of(b) for _, b in edges]
        self._edges_at: Dict[int, List[int]] = {index_of(q): [] for q in architecture.qubits}
        for edge_index in range(len(edges)):
            self._edges_at[self._edge_a[edge_index]].append(edge_index)
            self._edges_at[self._edge_b[edge_index]].append(edge_index)
        # Neighbour indices per index, in ascending physical id (the
        # livelock escape's deterministic step order).
        adjacency = architecture.adjacency()
        self._neighbors: List[List[int]] = [
            [index_of(n) for n in adjacency[q]] for q in self._physical
        ]
        # The same tables as flat arrays for the C pass; None on a
        # disconnected chip, whose infinite distances only the Python pass
        # handles (the routing engine refuses such chips anyway).
        self._c_router: Optional[_CFields] = None
        if self.distances.is_connected():
            self._c_router = (
                len(self._physical),
                np.ascontiguousarray(self.distances.array, dtype=np.float64),
                len(edges),
                np.array(self._edge_a, dtype=np.int32),
                np.array(self._edge_b, dtype=np.int32),
                *_csr([self._edges_at[index] for index in range(len(self._physical))]),
                *_csr(self._neighbors),
                np.array(self._physical, dtype=np.int64),
            )

    # -- public API ------------------------------------------------------------

    def route(
        self,
        circuit: QuantumCircuit,
        initial_mapping: Dict[int, int],
    ) -> Tuple[QuantumCircuit, int, Dict[int, int]]:
        """Route ``circuit`` starting from ``initial_mapping`` (one forward pass).

        Args:
            circuit: Logical circuit (CNOT + single-qubit basis).
            initial_mapping: logical qubit -> physical qubit; must be injective
                and cover every logical qubit of the circuit.

        Returns:
            ``(physical_circuit, num_swaps, final_mapping)`` where
            ``physical_circuit`` contains the original gates rewritten onto
            physical qubit indices with explicit ``swap`` gates inserted.
        """
        self._validate_mapping(circuit.num_qubits, initial_mapping)
        dag = PackedDAG.from_circuit(circuit)
        events: List[int] = []
        num_swaps, final_mapping = self._pass(dag, initial_mapping, events)
        log = RoutingLog(events, num_swaps, dict(initial_mapping), final_mapping)
        return self.materialize(circuit, log, self.architecture.name), num_swaps, final_mapping

    def route_packed(
        self,
        forward: PackedDAG,
        reverse: Optional[PackedDAG],
        initial_mapping: Dict[int, int],
    ) -> RoutingLog:
        """Best count-only routing over bidirectional passes and seeded restarts.

        Runs ``parameters.restarts`` restart chains; each chain routes
        ``parameters.passes`` alternating forward / reverse passes, feeding
        every pass's final mapping into the next pass as its initial
        mapping.  Every *forward* pass yields a candidate; the one with
        the fewest swaps wins, with ties resolved toward the earliest
        (restart, pass) so that ``passes=1, restarts=1`` is exactly
        :meth:`route`.  Only forward passes record an event log; reverse
        passes only move the mapping.

        Args:
            forward: Packed DAG of the circuit.
            reverse: Packed DAG of the circuit's reversed gate sequence
                (required when ``parameters.passes > 1``).
            initial_mapping: As for :meth:`route`.
        """
        self._validate_mapping(forward.num_qubits, initial_mapping)
        params = self.parameters
        if params.passes > 1 and reverse is None:
            raise ValueError("bidirectional passes need the reversed circuit's packed DAG")
        best: Optional[RoutingLog] = None
        for restart in range(params.restarts):
            mapping = (
                dict(initial_mapping)
                if restart == 0
                else self._perturbed_mapping(initial_mapping, restart)
            )
            for pass_index in range(params.passes):
                if pass_index % 2:
                    assert reverse is not None
                    _, mapping = self._pass(reverse, mapping, None)
                    continue
                events: List[int] = []
                num_swaps, final_mapping = self._pass(forward, mapping, events)
                if best is None or num_swaps < best.num_swaps:
                    best = RoutingLog(events, num_swaps, mapping, dict(final_mapping))
                mapping = final_mapping
        assert best is not None  # params.passes >= 1 guarantees a forward pass
        return best

    def materialize(
        self, circuit: QuantumCircuit, log: RoutingLog, architecture_name: str
    ) -> QuantumCircuit:
        """The routed physical circuit that ``log`` (a forward pass of ``circuit``) describes.

        The circuit is named ``"<circuit>@<architecture_name>"``: a router
        serves every chip of its topology, so the caller names the chip.
        """
        routed = QuantumCircuit(
            max(self.architecture.qubits) + 1, name=f"{circuit.name}@{architecture_name}"
        )
        append = routed.append_unchecked
        gates = circuit.gates
        logical_to_physical = dict(log.initial_mapping)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}
        events = iter(log.events)
        for event in events:
            if event >= 0:
                append(gates[event].remap(logical_to_physical))
                continue
            phys_a, phys_b = ~event, ~next(events)
            append(Gate("swap", (phys_a, phys_b)))
            swap_mapping(logical_to_physical, physical_to_logical, phys_a, phys_b)
        return routed

    def _perturbed_mapping(self, initial_mapping: Dict[int, int], restart: int) -> Dict[int, int]:
        """A deterministic perturbation of ``initial_mapping`` for restart > 0.

        Applies ``1 + restart`` random transpositions of physical qubits
        (occupied or free), seeded from the router parameters and the
        restart index only — never from process or schedule state — so
        parallel sweeps stay byte-identical across worker counts.
        """
        mapping = dict(initial_mapping)
        qubits = self.architecture.qubits
        if len(qubits) < 2:
            return mapping  # nothing to transpose on a degenerate chip
        rng = deterministic_rng("sabre-restart", self.parameters.seed, restart)
        physical_to_logical = {p: l for l, p in mapping.items()}
        for _ in range(1 + restart):
            phys_a, phys_b = (int(qubits[i]) for i in rng.choice(len(qubits), 2, replace=False))
            swap_mapping(mapping, physical_to_logical, phys_a, phys_b)
        return mapping

    # -- the routing pass ----------------------------------------------------------

    def _pass(
        self,
        dag: PackedDAG,
        mapping: Dict[int, int],
        events: Optional[List[int]],
    ) -> Tuple[int, Dict[int, int]]:
        """One routing pass over ``dag`` from ``mapping``.

        While ``native`` is the active backend the pass runs in C
        (:meth:`_native_pass`); otherwise, and whenever the C pass stops
        on an error, :meth:`_python_pass` runs it, so every exception and
        message is the reference's.  Both give the same events, swap
        count and final mapping.
        """
        kernel = merge_kernel.native_sabre_pass()
        if kernel is not None:
            result = self._native_pass(kernel, dag, mapping, events)
            if result is not None:
                return result
        return self._python_pass(dag, mapping, events)

    def _native_pass(
        self,
        kernel: Callable[..., int],
        dag: PackedDAG,
        mapping: Dict[int, int],
        events: Optional[List[int]],
    ) -> Optional[Tuple[int, Dict[int, int]]]:
        """:meth:`_python_pass` as one call of the C ``sabre_pass``.

        The mapping crosses as ``pos`` (index of each circuit logical) and
        ``occupant`` (the position of the mapping key at each index, -1
        when free), so extra logical keys ride along like in Python.
        Returns None when the Python pass must decide: a non-integer count
        parameter, a disconnected chip, or an error status.  Logical keys
        are non-negative: every caller of :meth:`_pass` validates the
        mapping first (:meth:`_validate_mapping`).
        """
        if self._c_router is None:
            return None
        params = self.parameters
        index_of = self.distances.index_of
        num_qubits = dag.num_qubits
        pos = [0] * num_qubits
        occupant = [-1] * len(self._physical)
        key_logical: List[int] = []
        for key, (logical, physical) in enumerate(mapping.items()):
            index = index_of(physical)
            occupant[index] = key
            if logical < num_qubits:
                pos[logical] = index
                key_logical.append(logical)
            else:
                key_logical.append(-1)
        key_array = np.array(key_logical, dtype=np.int32)
        stall_threshold = params.stall_threshold
        if stall_threshold is None:
            stall_threshold = int(3 * self.distances.diameter()) + 8
        swap_budget = params.max_swaps_per_gate * max(1, dag.num_two_qubit)
        counts = (params.extended_set_size, params.decay_reset_interval, swap_budget,
                  stall_threshold)
        if not all(isinstance(count, int) for count in counts):
            return None
        record = events is not None
        # Room for every node and about two swaps per two-qubit gate; a
        # longer log reports its length and the pass reruns once.
        capacity = dag.num_nodes + 4 * dag.num_two_qubit + 64 if record else 0
        out = np.zeros(2, dtype=np.int64)
        while True:
            pos_array = np.array(pos, dtype=np.int32)
            occupant_array = np.array(occupant, dtype=np.int32)
            buffer = np.empty(capacity, dtype=np.int64)
            status = kernel(
                *_c_args(self._c_router), *_c_args(_pack_fields(dag)),
                params.extended_set_size, float(params.extended_set_weight),
                float(params.decay_factor), params.decay_reset_interval,
                swap_budget, stall_threshold,
                pos_array.ctypes.data, occupant_array.ctypes.data, key_array.ctypes.data,
                int(record), buffer.ctypes.data, capacity, out.ctypes.data,
            )
            if status != _SABRE_OVERFLOW:
                break
            capacity = int(out[1])
        if status != _SABRE_OK:
            return None
        index_of_key = [0] * len(key_logical)
        for index, key in enumerate(occupant_array.tolist()):
            if key >= 0:
                index_of_key[key] = index
        physical_of = self._physical
        final_mapping = {
            logical: physical_of[index_of_key[key]] for key, logical in enumerate(mapping)
        }
        if events is not None:
            events.extend(buffer[: int(out[1])].tolist())
        return int(out[0]), final_mapping

    def _python_pass(
        self,
        dag: PackedDAG,
        mapping: Dict[int, int],
        events: Optional[List[int]],
    ) -> Tuple[int, Dict[int, int]]:
        """One routing pass over ``dag`` from ``mapping``.

        Appends the pass's events to ``events`` unless it is None.
        Returns ``(num_swaps, final_mapping)``; the final mapping keeps
        the key order of ``mapping``.
        """
        params = self.parameters
        dist_rows = self._dist_rows
        index_of = self.distances.index_of
        num_qubits = dag.num_qubits
        num_positions = len(dist_rows)
        # pos[l] is the index hosting circuit logical l, occupant[i] the
        # logical at index i (None when free).  The mapping may carry extra
        # logical keys beyond the register: they pin physical qubits and
        # move with swaps, but never appear in a gate, so only occupant
        # tracks them.
        pos = [0] * num_qubits
        occupant: List[Optional[int]] = [None] * num_positions
        for logical, physical in mapping.items():
            index = index_of(physical)
            occupant[index] = logical
            if logical < num_qubits:
                pos[logical] = index
        qa = dag.qa
        qb = dag.qb
        successors = dag.successors
        remaining = list(dag.num_preds)
        front = set(dag.front)
        pending = dag.num_nodes
        record = events.append if events is not None else None

        num_swaps = 0
        swap_budget = params.max_swaps_per_gate * max(1, dag.num_two_qubit)
        decay: List[float] = [1.0] * num_positions
        decay_factor = params.decay_factor
        swaps_since_reset = 0
        swaps_since_progress = 0
        stall_threshold = params.stall_threshold
        if stall_threshold is None:
            stall_threshold = int(3 * self.distances.diameter()) + 8

        while True:
            # Execute everything executable.  Executing never moves the
            # mapping, so one walk over the sorted front plus the nodes it
            # unblocks reaches closure; afterwards the front holds only
            # blocked two-qubit gates.
            queue = deque(sorted(front))
            while queue:
                node = queue.popleft()
                logical_a = qa[node]
                if logical_a >= 0 and dist_rows[pos[logical_a]][pos[qb[node]]] != 1:
                    continue
                if record is not None:
                    record(node)
                front.discard(node)
                pending -= 1
                for successor in successors[node]:
                    remaining[successor] -= 1
                    if not remaining[successor]:
                        front.add(successor)
                        queue.append(successor)
            if not pending:
                break

            # The blocked front and the extended look-ahead set only change
            # when gates execute, not when swaps are applied, so their
            # partner lists and base cost sums are built once per execution
            # event rather than per swap decision.
            blocked = sorted(front)
            extended = dag.lookahead(blocked, params.extended_set_size)
            front_partners = _partners(blocked, qa, qb)
            extended_partners = _partners(extended, qa, qb)
            base_front = sum(dist_rows[pos[qa[node]]][pos[qb[node]]] for node in blocked)
            base_extended = sum(dist_rows[pos[qa[node]]][pos[qb[node]]] for node in extended)

            while True:
                if swaps_since_progress >= stall_threshold:
                    # The heuristic is livelocking; force progress by walking
                    # the first blocked gate's operands together along a
                    # shortest path (making that gate executable).
                    num_swaps += self._force_route(
                        qa[blocked[0]], qb[blocked[0]], pos, occupant, record
                    )
                    swaps_since_progress = 0
                    break

                chosen = self._choose_swap(
                    pos, occupant, front_partners, extended_partners,
                    len(blocked), len(extended), base_front, base_extended, decay,
                )
                if chosen is None:
                    raise RuntimeError(
                        "no useful SWAP found; the coupling graph may be disconnected"
                    )
                swapped_a, swapped_b, delta_front, delta_extended = chosen
                base_front += delta_front
                base_extended += delta_extended
                self._swap(swapped_a, swapped_b, pos, occupant, record)
                num_swaps += 1
                swaps_since_reset += 1
                swaps_since_progress += 1
                decay[swapped_a] += decay_factor
                decay[swapped_b] += decay_factor
                if swaps_since_reset >= params.decay_reset_interval:
                    decay = [1.0] * num_positions
                    swaps_since_reset = 0
                if num_swaps > swap_budget:
                    raise RuntimeError(
                        f"router exceeded swap budget ({swap_budget}); "
                        "the architecture is likely not routable"
                    )
                # Only blocked gates holding a logical the swap moved can have
                # become executable; checking those few gates avoids a full
                # front rescan per swap.
                if any(
                    dist_rows[pos[logical]][pos[partner]] == 1
                    for logical in (occupant[swapped_a], occupant[swapped_b])
                    for partner in front_partners.get(logical, ())
                ):
                    swaps_since_progress = 0
                    break

        physical = self._physical
        index_of_logical = {
            logical: index for index, logical in enumerate(occupant) if logical is not None
        }
        final_mapping = {logical: physical[index_of_logical[logical]] for logical in mapping}
        return num_swaps, final_mapping

    def _swap(
        self,
        index_a: int,
        index_b: int,
        pos: List[int],
        occupant: List[Optional[int]],
        record: Optional[Callable[[int], None]],
    ) -> None:
        """Exchange the logicals at two indices and record the SWAP."""
        logical_a = occupant[index_a]
        logical_b = occupant[index_b]
        occupant[index_a] = logical_b
        occupant[index_b] = logical_a
        if logical_a is not None and logical_a < len(pos):
            pos[logical_a] = index_b
        if logical_b is not None and logical_b < len(pos):
            pos[logical_b] = index_a
        if record is not None:
            record(~self._physical[index_a])
            record(~self._physical[index_b])

    def _force_route(
        self,
        logical_a: int,
        logical_b: int,
        pos: List[int],
        occupant: List[Optional[int]],
        record: Optional[Callable[[int], None]],
    ) -> int:
        """Walk two logicals adjacent via greedy shortest-path swaps.

        Used only as a livelock escape hatch: each step swaps ``logical_a``
        to its lowest-numbered neighbour closer to ``logical_b``.  Returns
        the number of swaps applied.
        """
        dist_rows = self._dist_rows
        applied = 0
        while True:
            index_a = pos[logical_a]
            index_b = pos[logical_b]
            current = dist_rows[index_a][index_b]
            if current <= 1:
                return applied
            step = next(
                (n for n in self._neighbors[index_a] if dist_rows[n][index_b] < current),
                None,
            )
            if step is None:
                raise RuntimeError(
                    "cannot route gate: coupling graph is disconnected between "
                    f"physical qubits {self._physical[index_a]} and {self._physical[index_b]}"
                )
            self._swap(index_a, step, pos, occupant, record)
            applied += 1

    # -- internals ----------------------------------------------------------------

    def _validate_mapping(self, num_qubits: int, mapping: Dict[int, int]) -> None:
        physical = set(self.architecture.qubits)
        negative = [logical for logical in mapping if logical < 0]
        if negative:
            raise ValueError(f"initial mapping has negative logical qubit {negative[0]}")
        for logical in range(num_qubits):
            if logical not in mapping:
                raise ValueError(f"initial mapping misses logical qubit {logical}")
        # Injectivity and target validity must hold across the WHOLE mapping,
        # extra logical keys included: an extra key sharing a physical qubit
        # with a circuit logical corrupts the inverse mapping and livelocks
        # the router.
        for logical, target in mapping.items():
            if target not in physical:
                raise ValueError(
                    f"logical qubit {logical} mapped to unknown physical qubit {target}"
                )
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError("initial mapping maps two logical qubits to the same physical qubit")

    def _choose_swap(
        self,
        pos: List[int],
        occupant: List[Optional[int]],
        front_partners: Dict[Optional[int], List[int]],
        extended_partners: Dict[Optional[int], List[int]],
        num_front: int,
        num_extended: int,
        base_front: float,
        base_extended: float,
        decay: List[float],
    ) -> Optional[Tuple[int, int, float, float]]:
        """The candidate SWAP minimizing the look-ahead distance cost.

        Incremental delta scoring: swapping indices ``ia`` and ``ib`` moves
        only the logicals ``la`` and ``lb`` they hold, so a gate of ``la``
        with partner ``p`` changes from ``d(ia, pos[p])`` to
        ``d(ib, pos[p])`` (and likewise for ``lb``), while a gate joining
        ``la`` and ``lb`` keeps its distance.  Distances are small
        integers, so ``base + delta`` equals a full rescoring bit for bit.
        Candidates are scanned in ascending edge order and replaced only
        on a strictly lower score, which is the deterministic
        ``(score, edge)`` tie-break.

        Returns ``(ia, ib, front delta, extended delta)`` of the chosen
        swap, or None when no coupling edge touches the front layer.
        """
        edges_at = self._edges_at
        candidate_ids = sorted({e for logical in front_partners for e in edges_at[pos[logical]]})
        if not candidate_ids:
            return None

        dist_rows = self._dist_rows
        edge_a = self._edge_a
        edge_b = self._edge_b
        weight = self.parameters.extended_set_weight
        front_div = max(1, num_front)

        best_score = 0.0
        best = None
        best_improving_score = 0.0
        best_improving = None
        for edge_index in candidate_ids:
            index_a = edge_a[edge_index]
            index_b = edge_b[edge_index]
            row_a = dist_rows[index_a]
            row_b = dist_rows[index_b]
            logical_a = occupant[index_a]
            logical_b = occupant[index_b]
            delta_front = 0.0
            for partner in front_partners.get(logical_a, ()):
                if partner != logical_b:
                    at = pos[partner]
                    delta_front += row_b[at] - row_a[at]
            for partner in front_partners.get(logical_b, ()):
                if partner != logical_a:
                    at = pos[partner]
                    delta_front += row_a[at] - row_b[at]
            delta_extended = 0.0
            for partner in extended_partners.get(logical_a, ()):
                if partner != logical_b:
                    at = pos[partner]
                    delta_extended += row_b[at] - row_a[at]
            for partner in extended_partners.get(logical_b, ()):
                if partner != logical_a:
                    at = pos[partner]
                    delta_extended += row_a[at] - row_b[at]

            score = (base_front + delta_front) / front_div
            if num_extended:
                score += weight * (base_extended + delta_extended) / num_extended
            decay_a = decay[index_a]
            decay_b = decay[index_b]
            score *= decay_a if decay_a >= decay_b else decay_b

            if best is None or score < best_score:
                best_score = score
                best = (index_a, index_b, delta_front, delta_extended)
            if delta_front < 0.0 and (best_improving is None or score < best_improving_score):
                best_improving_score = score
                best_improving = (index_a, index_b, delta_front, delta_extended)

        # Swaps that do not reduce the front-layer cost at all only stay in
        # the running when no candidate reduces it (they can still win on
        # the extended set, but must not displace genuine progress).
        return best_improving if best_improving is not None else best


#: ``sabre_pass`` status codes (see ``merge_kernel._SABRE_SOURCE``).
_SABRE_OK = 0
_SABRE_OVERFLOW = 1


#: Leading arguments of a C call: counts, and arrays passed by address.
_CFields = Tuple[Union[int, np.ndarray], ...]


def _c_args(fields: _CFields) -> List[int]:
    """``fields`` with each array replaced by its data address.

    Addresses are taken per call, never stored, so the arrays may be
    copied or moved (a pickled router) without leaving a stale pointer.
    """
    return [field.ctypes.data if isinstance(field, np.ndarray) else field for field in fields]


def _csr(rows: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, items)`` int32 arrays: row ``i`` is ``items[start[i]:start[i + 1]]``."""
    start = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(row) for row in rows], out=start[1:])
    items = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(start[-1]))
    return start, items


#: Flat C arrays per packed DAG, built on a pack's first native pass and
#: dropped with the pack.
_PACK_FIELDS: "weakref.WeakKeyDictionary[PackedDAG, _CFields]" = weakref.WeakKeyDictionary()


def _pack_fields(dag: PackedDAG) -> _CFields:
    """The pack arguments of ``sabre_pass`` for ``dag`` (memoized per pack)."""
    found = _PACK_FIELDS.get(dag)
    if found is None:
        found = (
            len(dag.qa), dag.num_qubits, dag.num_nodes,
            np.array(dag.qa, dtype=np.int32), np.array(dag.qb, dtype=np.int32),
            *_csr(dag.successors),
            np.array(dag.num_preds, dtype=np.int32),
            np.array(dag.front, dtype=np.int32), len(dag.front),
        )
        _PACK_FIELDS[dag] = found
    return found


def _partners(nodes: List[int], qa: List[int], qb: List[int]) -> Dict[Optional[int], List[int]]:
    """The other operand of each two-qubit gate in ``nodes``, keyed by logical.

    Keys are typed optional because lookups pass ``occupant`` entries,
    which are None at free positions (and never match).
    """
    partners: Dict[Optional[int], List[int]] = {}
    for node in nodes:
        logical_a = qa[node]
        logical_b = qb[node]
        partners.setdefault(logical_a, []).append(logical_b)
        partners.setdefault(logical_b, []).append(logical_a)
    return partners
