"""Public entry point of the qubit mapping substrate.

:func:`route_circuit` maps a logical circuit onto an architecture and
returns a :class:`MappingResult` carrying the performance metric the
paper uses throughout Section 5: the total post-mapping gate count, where
each inserted SWAP costs three CNOTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import TWO_QUBIT_GATES, Gate
from repro.hardware.architecture import Architecture
from repro.mapping.sabre import RoutingLog, SabreParameters, swap_mapping
from repro.profiling.profiler import CircuitProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.engine import RoutingEngine

#: Number of CNOT gates required to implement one SWAP on hardware.
CNOTS_PER_SWAP = 3


@dataclass
class MappingResult:
    """Outcome of mapping a circuit onto an architecture.

    Attributes:
        circuit_name: Name of the mapped circuit.
        architecture_name: Name of the target architecture.
        original_gates: Gate count of the input circuit (all gate kinds).
        original_two_qubit_gates: Two-qubit gate count of the input circuit.
        num_swaps: SWAPs inserted by the router.
        initial_mapping: The logical -> physical mapping the router started from.
        final_mapping: The mapping after the last routed gate.
        routed_circuit: The physical circuit including explicit swap gates.
    """

    circuit_name: str
    architecture_name: str
    original_gates: int
    original_two_qubit_gates: int
    num_swaps: int
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    routed_circuit: Optional[QuantumCircuit] = None

    # With bidirectional passes or restarts enabled, ``initial_mapping`` is
    # the initial mapping of the *winning* forward pass (the mapping from
    # which replaying ``routed_circuit`` reproduces the logical circuit),
    # which may differ from the profile-driven placement the search began at.

    @property
    def total_gates(self) -> int:
        """Total post-mapping gate count (the paper's performance metric).

        Every original gate survives mapping unchanged; each inserted SWAP
        is charged as three CNOTs.
        """
        return self.original_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def total_two_qubit_gates(self) -> int:
        """Post-mapping two-qubit gate count."""
        return self.original_two_qubit_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_gates(self) -> int:
        """Gates added by routing."""
        return CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_ratio(self) -> float:
        """Routing overhead relative to the original gate count."""
        return self.overhead_gates / self.original_gates if self.original_gates else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "architecture": self.architecture_name,
            "original_gates": self.original_gates,
            "num_swaps": self.num_swaps,
            "total_gates": self.total_gates,
            "overhead_ratio": round(self.overhead_ratio, 4),
        }


def route_circuit(
    circuit: QuantumCircuit,
    architecture: Architecture,
    profile: Optional[CircuitProfile] = None,
    parameters: Optional[SabreParameters] = None,
    keep_routed_circuit: bool = True,
    engine: Optional["RoutingEngine"] = None,
) -> MappingResult:
    """Map ``circuit`` onto ``architecture`` and report the gate-count metric.

    Args:
        circuit: Logical circuit in the CNOT + single-qubit basis.
        architecture: Target hardware architecture.
        profile: Optional precomputed profile (saves recomputation when the
            caller already profiled the circuit).
        parameters: Optional router tuning parameters (must be omitted when
            ``engine`` is given; the engine's parameters apply).
        keep_routed_circuit: Set to False to drop the physical circuit and
            keep only the counts (saves memory in large sweeps).
        engine: Optional :class:`~repro.mapping.engine.RoutingEngine` to
            route through; shares per-architecture state and memoizes
            results across calls.  Without one, a throwaway engine is used
            (identical results, no reuse).
    """
    from repro.mapping.engine import RoutingEngine

    if engine is None:
        engine = RoutingEngine(parameters)
    elif parameters is not None and parameters != engine.parameters:
        raise ValueError(
            "pass routing parameters either directly or via the engine, not both"
        )
    return engine.route(
        circuit, architecture, profile=profile, keep_routed_circuit=keep_routed_circuit
    )


def verify_routing(
    logical: QuantumCircuit,
    routed: Union[QuantumCircuit, RoutingLog],
    architecture: Architecture,
    initial_mapping: Dict[int, int],
) -> None:
    """Check that a routing is a faithful execution of the logical circuit.

    ``routed`` is either the routed physical circuit or the router's event
    log of it (:class:`~repro.mapping.sabre.RoutingLog`).  A routed circuit
    is first turned into the same events (:func:`_events_of`).  Replaying
    the events from ``initial_mapping`` while tracking swaps must:

    * put every two-qubit gate (including inserted swaps) on a coupled
      physical pair;
    * run every non-barrier gate of ``logical`` exactly once, with the
      positions run on each logical qubit strictly increasing;
    * run no gate past a barrier before every qubit of that barrier has
      reached it;
    * for a log, insert exactly ``routed.num_swaps`` swaps.

    Those rules are the dependency order of :mod:`repro.circuit.dag`
    restated on circuit positions, so the router may still run gates on
    disjoint qubits in any order.  The replay reads only
    ``logical.gates``, never the pack the router ran on, so a wrong pack
    cannot vouch for its own routing.

    Raises:
        AssertionError: When any check fails (this guards the evaluation
            pipeline against router bugs rather than user input errors).
    """
    order = _order_of(logical)
    if isinstance(routed, RoutingLog):
        events, num_swaps = routed.events, routed.num_swaps
    else:
        events, num_swaps = _events_of(logical, order, routed, initial_mapping), None
    _replay(order, events, num_swaps, architecture, initial_mapping)


@dataclass(frozen=True)
class _Order:
    """The positions a replay checks one circuit's routing against.

    Built from the circuit's gate list alone.

    Attributes:
        num_qubits: Register size of the circuit.
        operands: Logical qubits of each gate; ``()`` for a barrier, which
            never runs.
        coupled: 1 where the gate needs a coupled physical pair.
        fences: For each gate right past one or more barriers, the
            ``(qubit, position)`` gates that must have run before it: the
            last gate before those barriers on each of their qubits, and
            what earlier barriers on those qubits passed on.
        num_gates: Number of non-barrier gates.
    """

    num_qubits: int
    operands: List[Tuple[int, ...]]
    coupled: bytearray
    fences: Dict[int, Tuple[Tuple[int, int], ...]]
    num_gates: int

    @classmethod
    def of(cls, circuit: QuantumCircuit) -> "_Order":
        num_qubits = circuit.num_qubits
        operands: List[Tuple[int, ...]] = []
        coupled = bytearray(len(circuit))
        fences: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        last_on = [-1] * num_qubits
        # What the barriers since the last gate on each qubit pass on to
        # the next gate on it.
        passed: List[Tuple[Tuple[int, int], ...]] = [()] * num_qubits
        num_gates = 0
        for position, gate in enumerate(circuit.gates):
            qubits = gate.qubits
            if gate.name == "barrier":
                span = qubits or range(num_qubits)
                merged = tuple(dict.fromkeys(
                    pair
                    for qubit in span
                    for pair in ((qubit, last_on[qubit]),) + passed[qubit]
                    if pair[1] >= 0
                ))
                for qubit in span:
                    passed[qubit] = merged
                operands.append(())
                continue
            fence: Tuple[Tuple[int, int], ...] = ()
            for qubit in qubits:
                fence += passed[qubit]
                passed[qubit] = ()
                last_on[qubit] = position
            if fence:
                fences[position] = tuple(dict.fromkeys(fence))
            operands.append(qubits)
            coupled[position] = gate.name in TWO_QUBIT_GATES
            num_gates += 1
        return cls(num_qubits, operands, coupled, fences, num_gates)


#: Recently replayed circuits' orders, keyed by the identity of their gate
#: tuple; each entry holds that tuple, so the identity stays unique.  A
#: sweep verifies every route of a circuit against the same tuple.
_ORDERS: Dict[int, Tuple[Tuple[Gate, ...], _Order]] = {}


def _order_of(circuit: QuantumCircuit) -> _Order:
    """The circuit's :class:`_Order` (memoized per gate tuple)."""
    gates = circuit.gates
    entry = _ORDERS.get(id(gates))
    if entry is not None and entry[0] is gates and entry[1].num_qubits == circuit.num_qubits:
        return entry[1]
    order = _Order.of(circuit)
    if len(_ORDERS) >= 32:
        del _ORDERS[next(iter(_ORDERS))]
    _ORDERS[id(gates)] = (gates, order)
    return order


def _events_of(
    logical: QuantumCircuit,
    order: _Order,
    routed: QuantumCircuit,
    initial_mapping: Dict[int, int],
) -> List[int]:
    """The routed circuit as routing-log events.

    Each routed gate is matched to the next pending gate on its logical
    operands.  A ``swap`` is the program's own when it matches a program
    swap of the same two logicals that is ready to run; otherwise it is
    a routing SWAP.  Router output is never ambiguous: a ready program
    swap would have run before the router inserted a swap of its own on
    that coupled pair.
    """
    gates = logical.gates
    num_qubits = order.num_qubits
    # Per logical qubit, its gate positions in circuit order, then -1.
    lanes: List[List[int]] = [[] for _ in range(num_qubits)]
    for position, qubits in enumerate(order.operands):
        for qubit in qubits:
            lanes[qubit].append(position)
    for lane in lanes:
        lane.append(-1)
    cursor = [0] * num_qubits

    def matching_position(gate: Gate, operands: Tuple[int, ...]) -> int:
        """The position ``gate`` runs as, or -1 when it is no next pending gate."""
        if not operands or -1 in operands:
            return -1
        position = lanes[operands[0]][cursor[operands[0]]]
        if position < 0 or any(lanes[qubit][cursor[qubit]] != position for qubit in operands):
            return -1
        pending = gates[position]
        if (pending.name, pending.qubits, pending.params) != (gate.name, operands, gate.params):
            return -1
        return position

    def has_run(qubit: int, position: int) -> bool:
        return cursor[qubit] > 0 and lanes[qubit][cursor[qubit] - 1] >= position

    logical_to_physical = {l: p for l, p in initial_mapping.items() if 0 <= l < num_qubits}
    physical_to_logical = {p: l for l, p in logical_to_physical.items()}
    events: List[int] = []
    for gate in routed.gates:
        # -1 marks a physical qubit that hosts no logical of the circuit.
        operands = tuple([physical_to_logical.get(qubit, -1) for qubit in gate.qubits])
        position = matching_position(gate, operands)
        if gate.name == "swap" and (position < 0 or not all(
            has_run(*pair) for pair in order.fences.get(position, ())
        )):
            phys_a, phys_b = gate.qubits
            events += (~phys_a, ~phys_b)
            swap_mapping(logical_to_physical, physical_to_logical, phys_a, phys_b)
            continue
        if -1 in operands:
            raise AssertionError(
                f"routed gate {gate} acts on a physical qubit hosting no logical qubit"
            )
        if position < 0:
            raise AssertionError(
                f"routed gate {gate} (logical operands {operands}) is not the next "
                "pending gate on its qubits"
            )
        events.append(position)
        for qubit in operands:
            cursor[qubit] += 1
    return events


def _replay(
    order: _Order,
    events: List[int],
    num_swaps: Optional[int],
    architecture: Architecture,
    initial_mapping: Dict[int, int],
) -> None:
    """Replay routing events against a circuit's order (see :func:`verify_routing`).

    ``num_swaps`` is the swap count the events must hold, or None.
    """
    num_physical = max(architecture.qubits) + 1
    adjacent = [bytearray(num_physical) for _ in range(num_physical)]
    for a, b in architecture.coupling_edges():
        adjacent[a][b] = adjacent[b][a] = 1
    operands = order.operands
    needs_pair = order.coupled
    fences = order.fences
    size = len(operands)
    num_qubits = order.num_qubits
    # The mapping as two lists; -1 marks a physical qubit that hosts no
    # logical of the circuit (free, or pinned by an extra mapping key).
    logical_to_physical = [-1] * num_qubits
    physical_to_logical = [-1] * num_physical
    for logical, physical in initial_mapping.items():
        if not 0 <= physical < num_physical:
            raise AssertionError(f"initial mapping uses unknown physical qubit {physical}")
        if 0 <= logical < num_qubits:
            logical_to_physical[logical] = physical
            physical_to_logical[physical] = logical
    if -1 in logical_to_physical:
        raise AssertionError("initial mapping misses a logical qubit of the circuit")
    # last[q]: the latest position run on logical qubit q.
    last = [-1] * num_qubits
    swaps = 0
    events_left = iter(events)
    for event in events_left:
        if event < 0:
            second = next(events_left, 0)
            if second >= 0:
                raise AssertionError("routing log ends inside a swap")
            phys_a, phys_b = ~event, ~second
            if not (phys_a < num_physical and phys_b < num_physical
                    and adjacent[phys_a][phys_b]):
                raise AssertionError(
                    f"logged swap ({phys_a}, {phys_b}) acts on uncoupled physical qubits "
                    f"on architecture {architecture.name!r}"
                )
            logical_a = physical_to_logical[phys_a]
            logical_b = physical_to_logical[phys_b]
            physical_to_logical[phys_a] = logical_b
            physical_to_logical[phys_b] = logical_a
            if logical_a >= 0:
                logical_to_physical[logical_a] = phys_b
            if logical_b >= 0:
                logical_to_physical[logical_b] = phys_a
            swaps += 1
            continue
        if event >= size:
            raise AssertionError(f"logged gate {event} is not a position of the circuit")
        if needs_pair[event]:
            a, b = operands[event]
            if last[a] >= event or last[b] >= event:
                raise AssertionError(f"logged gate {event} runs out of order on its qubits")
            last[a] = last[b] = event
            if not adjacent[logical_to_physical[a]][logical_to_physical[b]]:
                raise AssertionError(
                    f"logged gate {event} acts on uncoupled physical qubits "
                    f"on architecture {architecture.name!r}"
                )
        else:
            qubits = operands[event]
            if not qubits:
                raise AssertionError(f"logged gate {event} is a barrier, which never runs")
            for a in qubits:
                if last[a] >= event:
                    raise AssertionError(f"logged gate {event} runs out of order on its qubits")
                last[a] = event
        # A fence naming one of the gate's own qubits holds trivially here;
        # that gate's turn was checked by the strictly increasing positions.
        if fences and event in fences:
            for qubit, position in fences[event]:
                if last[qubit] < position:
                    raise AssertionError(
                        f"logged gate {event} crosses a barrier before gate {position} ran"
                    )
    unexecuted = order.num_gates - (len(events) - 2 * swaps)
    if unexecuted:
        raise AssertionError(f"routing left {unexecuted} gates unexecuted")
    if num_swaps is not None and swaps != num_swaps:
        raise AssertionError(f"routing log holds {swaps} swaps, not {num_swaps}")
