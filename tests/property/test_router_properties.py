"""Property tests of the SWAP router and routing engine.

Invariants covered (ISSUE satellite list):

* every routed circuit passes :func:`verify_routing` — faithful dependency
  order, correct logical operands, coupled physical pairs — across random
  circuits, random connected architectures, and random router parameters
  (including bidirectional passes and seeded restarts);
* the routed circuit conserves the original gates: exactly the input
  gates plus ``num_swaps`` swap gates;
* routing is deterministic: same inputs, same routed circuit;
* the livelock escape hatch (``stall_threshold=0`` forces every blocked
  gate through ``_force_route``) still produces verifiable routings;
* against an exact oracle (breadth-first search over mappings, ≤ 5
  physical qubits and ≤ 12 two-qubit gates) the router never reports
  fewer swaps than the optimum, and routing count-only or with a
  materialized circuit gives the same answer.
"""

from __future__ import annotations

import pytest
from typing import Dict, FrozenSet, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.gates import cx, h, measure, swap
from repro.hardware import Architecture, Lattice
from repro.mapping import RoutingEngine, SabreParameters, verify_routing
from strategies import examples

pytestmark = pytest.mark.property


@st.composite
def rectangle_architectures(draw):
    """Connected rectangle-lattice architectures of 2..12 qubits."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2, 4))
    return Architecture.from_layout(f"rect_{rows}x{cols}", Lattice.rectangle(rows, cols))


@st.composite
def random_circuits(draw, num_qubits: int):
    """Random CNOT + single-qubit + measurement circuits on ``num_qubits``."""
    num_gates = draw(st.integers(1, 30))
    gates = []
    for _ in range(num_gates):
        kind = draw(st.integers(0, 4))
        if kind <= 1 and num_qubits >= 2:
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            gates.append(cx(a, b))
        elif kind == 2 and num_qubits >= 2:
            # Program-level swap gates: must route like any two-qubit gate
            # and must not be mistaken for router-inserted swaps.
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            gates.append(swap(a, b))
        elif kind == 3:
            gates.append(h(draw(st.integers(0, num_qubits - 1))))
        else:
            gates.append(measure(draw(st.integers(0, num_qubits - 1))))
    circuit = QuantumCircuit(num_qubits, name="random")
    circuit.extend(gates)
    return circuit


@st.composite
def routing_cases(draw):
    architecture = draw(rectangle_architectures())
    circuit = draw(random_circuits(architecture.num_qubits))
    return architecture, circuit


router_parameters = st.builds(
    SabreParameters,
    extended_set_size=st.sampled_from([0, 5, 20]),
    passes=st.sampled_from([1, 3]),
    restarts=st.sampled_from([1, 2]),
)


class TestRoutedCircuitsAreFaithful:
    @given(case=routing_cases(), parameters=router_parameters)
    @settings(max_examples=examples(60))
    def test_routed_circuit_passes_verification(self, case, parameters):
        architecture, circuit = case
        result = RoutingEngine(parameters).route(circuit, architecture)
        verify_routing(
            circuit, result.routed_circuit, architecture, result.initial_mapping
        )

    @given(case=routing_cases())
    @settings(max_examples=examples(40))
    def test_gate_conservation(self, case):
        architecture, circuit = case
        result = RoutingEngine().route(circuit, architecture)
        routed = result.routed_circuit
        program_swaps = sum(1 for gate in circuit if gate.name == "swap")
        routed_swaps = sum(1 for gate in routed if gate.name == "swap")
        assert routed_swaps == result.num_swaps + program_swaps
        assert len(routed) == len(circuit) + result.num_swaps
        original = sorted((g.name, g.params) for g in circuit if g.name != "swap")
        mapped = sorted((g.name, g.params) for g in routed if g.name != "swap")
        assert mapped == original

    @given(case=routing_cases())
    @settings(max_examples=examples(25))
    def test_routing_is_deterministic(self, case):
        architecture, circuit = case
        first = RoutingEngine().route(circuit, architecture)
        second = RoutingEngine().route(circuit, architecture)
        assert first.num_swaps == second.num_swaps
        assert list(first.routed_circuit.gates) == list(second.routed_circuit.gates)

    @given(case=routing_cases())
    @settings(max_examples=examples(25))
    def test_force_route_only_routing_verifies(self, case):
        architecture, circuit = case
        engine = RoutingEngine(SabreParameters(stall_threshold=0))
        result = engine.route(circuit, architecture)
        verify_routing(
            circuit, result.routed_circuit, architecture, result.initial_mapping
        )


def optimal_swaps(
    circuit: QuantumCircuit, architecture: Architecture, mapping: Dict[int, int]
) -> int:
    """The fewest SWAPs that route ``circuit`` from ``mapping`` (exact BFS).

    A state is the physical position of every circuit logical plus the
    set of executed gates.  Executing an executable gate never hurts, so
    each state takes the full closure of executable gates and only SWAPs
    are search steps.  Dependencies come straight from the gate list
    (each gate waits for the previous gate on each of its qubits).
    """
    gates = list(circuit)
    predecessors: List[Set[int]] = []
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        predecessors.append({last_on_qubit[q] for q in gate.qubits if q in last_on_qubit})
        for qubit in gate.qubits:
            last_on_qubit[qubit] = index
    edges = architecture.coupling_edges()
    coupled = set(edges) | {(b, a) for a, b in edges}

    def closure(positions: Tuple[int, ...], done: FrozenSet[int]) -> FrozenSet[int]:
        executed = set(done)
        progressed = True
        while progressed:
            progressed = False
            for index, gate in enumerate(gates):
                if index in executed or not predecessors[index] <= executed:
                    continue
                if gate.is_two_qubit:
                    a, b = gate.qubits
                    if (positions[a], positions[b]) not in coupled:
                        continue
                executed.add(index)
                progressed = True
        return frozenset(executed)

    start_positions = tuple(mapping[q] for q in range(circuit.num_qubits))
    start = (start_positions, closure(start_positions, frozenset()))
    if len(start[1]) == len(gates):
        return 0
    seen = {start}
    layer = [start]
    depth = 0
    while layer:
        depth += 1
        next_layer = []
        for positions, done in layer:
            for a, b in edges:
                moved = tuple(b if p == a else a if p == b else p for p in positions)
                state = (moved, closure(moved, done))
                if len(state[1]) == len(gates):
                    return depth
                if state not in seen:
                    seen.add(state)
                    next_layer.append(state)
        layer = next_layer
    raise AssertionError("no routing exists")


@st.composite
def oracle_cases(draw):
    """Tiny connected chips (≤ 5 qubits) and circuits (≤ 12 two-qubit gates)."""
    rows, cols = draw(st.sampled_from([(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)]))
    architecture = Architecture.from_layout(f"rect_{rows}x{cols}", Lattice.rectangle(rows, cols))
    num_qubits = draw(st.integers(2, architecture.num_qubits))
    circuit = QuantumCircuit(num_qubits, name="oracle")
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.integers(0, num_qubits - 1))
        b = draw(st.integers(0, num_qubits - 2))
        if b >= a:
            b += 1
        circuit.append(swap(a, b) if draw(st.integers(0, 4)) == 0 else cx(a, b))
        if draw(st.booleans()):
            circuit.append(h(draw(st.integers(0, num_qubits - 1))))
    return architecture, circuit


class TestExactOptimumOracle:
    @given(case=oracle_cases(), passes=st.sampled_from([1, 3]))
    @settings(max_examples=examples(40))
    def test_router_never_beats_the_optimum(self, case, passes):
        architecture, circuit = case
        parameters = SabreParameters(passes=passes)
        counts_only = RoutingEngine(parameters).route(
            circuit, architecture, keep_routed_circuit=False
        )
        full = RoutingEngine(parameters).route(circuit, architecture, keep_routed_circuit=True)
        assert counts_only.routed_circuit is None
        assert counts_only.num_swaps == full.num_swaps
        assert counts_only.initial_mapping == full.initial_mapping
        assert counts_only.final_mapping == full.final_mapping

        assert full.num_swaps >= optimal_swaps(circuit, architecture, full.initial_mapping)

        routed = full.routed_circuit
        verify_routing(circuit, routed, architecture, full.initial_mapping)
        program_swaps = sum(1 for gate in circuit if gate.name == "swap")
        routed_swaps = sum(1 for gate in routed if gate.name == "swap")
        assert routed_swaps - program_swaps == full.num_swaps
