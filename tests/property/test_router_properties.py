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
  materialized circuit gives the same answer;
* each SWAP decision (``SabreRouter._choose_swap`` on partner lists) is
  the one a brute-force reference makes by rescoring the whole front and
  extended set on a copied mapping per candidate;
* the C routing pass of the native library and the Python pass, its
  reference, give the same event log, swap count and final mapping (key
  order included), or the same exception and message;
* packs of random circuits with barriers, in both directions, equal the
  brute-force definition of the dependency order, and the replay of
  :func:`verify_routing` passes a log exactly when it keeps that order,
  also when the router ran on a pack with one edge dropped.
"""

from __future__ import annotations

import pytest
from dataclasses import replace
from functools import lru_cache
from typing import Dict, FrozenSet, List, Set, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.dag import PackedDAG
from repro.circuit.gates import TWO_QUBIT_GATES, barrier, cx, h, measure, swap
from repro.collision import merge_kernel
from repro.hardware import Architecture, Lattice, ibm_16q_2x8, ibm_20q_4x5
from repro.mapping import RoutingEngine, SabreParameters, verify_routing
from repro.mapping.sabre import SabreRouter, _partners
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


@st.composite
def barrier_circuits(draw, num_qubits: int):
    """Random circuits with barriers: explicit qubit subsets, or none
    (every qubit), mixed with CNOTs, program swaps, H and measurements."""
    circuit = QuantumCircuit(num_qubits, name="fenced")
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 4))
        qubits = draw(st.permutations(range(num_qubits)))
        if kind == 0:
            span = draw(st.integers(0, num_qubits))
            circuit.append(barrier(*sorted(qubits[:span])))
        elif kind <= 2 and num_qubits >= 2:
            circuit.append((cx if kind == 1 else swap)(qubits[0], qubits[1]))
        else:
            circuit.append((h if kind == 3 else measure)(qubits[0]))
    return circuit


@st.composite
def barrier_routing_cases(draw):
    architecture = draw(rectangle_architectures())
    num_qubits = draw(st.integers(1, architecture.num_qubits))
    return architecture, draw(barrier_circuits(num_qubits))


def reference_predecessors(circuit: QuantumCircuit, reverse: bool = False) -> Dict[int, Set[int]]:
    """Each non-barrier gate's predecessors, straight from the definition.

    Gate ``j`` precedes gate ``i`` when ``j`` is the last non-barrier gate
    before ``i`` on a qubit they share; a barrier met on the way passes on
    what precedes it on each of its qubits (every qubit when it names
    none).  With ``reverse`` the gate list is read last to first.
    """
    gates = list(reversed(circuit.gates)) if reverse else list(circuit.gates)

    def span(gate) -> Tuple[int, ...]:
        if gate.name == "barrier" and not gate.qubits:
            return tuple(range(circuit.num_qubits))
        return gate.qubits

    @lru_cache(maxsize=None)
    def before(position: int, qubit: int) -> FrozenSet[int]:
        for earlier in range(position - 1, -1, -1):
            gate = gates[earlier]
            if qubit in span(gate):
                if gate.name != "barrier":
                    return frozenset({earlier})
                return frozenset().union(*(before(earlier, q) for q in span(gate)))
        return frozenset()

    return {
        position: set().union(*(before(position, q) for q in gate.qubits))
        for position, gate in enumerate(gates)
        if gate.name != "barrier"
    }


class TestPackMatchesTheDefinition:
    @given(circuit=st.integers(1, 5).flatmap(barrier_circuits), reverse=st.booleans())
    @settings(max_examples=examples(150))
    def test_pack_equals_the_brute_force_definition(self, circuit, reverse):
        packed = PackedDAG.from_circuit(circuit, reverse=reverse)
        predecessors = reference_predecessors(circuit, reverse)
        gates = list(reversed(circuit.gates)) if reverse else list(circuit.gates)
        size = len(gates)
        assert packed.num_qubits == circuit.num_qubits
        assert packed.num_nodes == len(predecessors)
        assert packed.num_preds == [
            len(predecessors[i]) if i in predecessors else -1 for i in range(size)
        ]
        assert packed.successors == [
            sorted(i for i, preds in predecessors.items() if j in preds) for j in range(size)
        ]
        assert packed.front == sorted(i for i, preds in predecessors.items() if not preds)
        two_qubit = [gate.name in TWO_QUBIT_GATES for gate in gates]
        assert list(packed.two_qubit) == two_qubit
        assert packed.qa == [g.qubits[0] if two else -1 for g, two in zip(gates, two_qubit)]
        assert packed.qb == [g.qubits[1] if two else -1 for g, two in zip(gates, two_qubit)]
        assert packed.num_two_qubit == sum(two_qubit)

    @given(case=barrier_routing_cases(), parameters=router_parameters)
    @settings(max_examples=examples(60))
    def test_barrier_circuits_route_and_verify(self, case, parameters):
        architecture, circuit = case
        result = RoutingEngine(parameters).route(circuit, architecture)
        verify_routing(circuit, result.routed_circuit, architecture, result.initial_mapping)

    @given(case=barrier_routing_cases(), data=st.data())
    @settings(max_examples=examples(100))
    def test_replay_accepts_exactly_the_definitions_order(self, case, data):
        """Route on the pack, or on the pack with one edge dropped; the
        replay passes the log exactly when it keeps the definition's order."""
        architecture, circuit = case
        packed = PackedDAG.from_circuit(circuit)
        edges = [(j, i) for j, successors in enumerate(packed.successors) for i in successors]
        if edges and data.draw(st.booleans(), label="drop an edge"):
            j, i = data.draw(st.sampled_from(edges), label="dropped edge")
            successors = [list(row) for row in packed.successors]
            successors[j].remove(i)
            num_preds = list(packed.num_preds)
            num_preds[i] -= 1
            packed = replace(packed, successors=successors, num_preds=num_preds,
                             front=[k for k, count in enumerate(num_preds) if count == 0])
        mapping = dict(zip(range(circuit.num_qubits), architecture.qubits))
        log = SabreRouter(architecture).route_packed(packed, None, mapping)
        ran = {event: step for step, event in enumerate(log.events) if event >= 0}
        keeps_order = all(
            ran[j] < ran[i]
            for i, preds in reference_predecessors(circuit).items()
            for j in preds
        )
        if keeps_order:
            verify_routing(circuit, log, architecture, log.initial_mapping)
        else:
            with pytest.raises(AssertionError):
                verify_routing(circuit, log, architecture, log.initial_mapping)


def gate_predecessors(gates: List) -> List[Set[int]]:
    """Each gate's predecessors: the previous gate on each of its qubits."""
    predecessors: List[Set[int]] = []
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        predecessors.append({last_on_qubit[q] for q in gate.qubits if q in last_on_qubit})
        for qubit in gate.qubits:
            last_on_qubit[qubit] = index
    return predecessors


def coupled_pairs(architecture: Architecture) -> Set[Tuple[int, int]]:
    edges = architecture.coupling_edges()
    return set(edges) | {(b, a) for a, b in edges}


def execution_closure(gates, predecessors, coupled, positions, done) -> FrozenSet[int]:
    """``done`` plus every gate that becomes executable at ``positions``."""
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
    predecessors = gate_predecessors(gates)
    edges = architecture.coupling_edges()
    coupled = coupled_pairs(architecture)

    def closure(positions: Tuple[int, ...], done: FrozenSet[int]) -> FrozenSet[int]:
        return execution_closure(gates, predecessors, coupled, positions, done)

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


def blocked_front(circuit: QuantumCircuit, architecture: Architecture,
                  mapping: Dict[int, int]) -> List[int]:
    """The sorted blocked two-qubit gates once every executable gate has run."""
    gates = list(circuit)
    predecessors = gate_predecessors(gates)
    executed = execution_closure(gates, predecessors, coupled_pairs(architecture), mapping, ())
    return [index for index in range(len(gates))
            if index not in executed and predecessors[index] <= executed]


def reference_choice(architecture, parameters, circuit, front, extended, mapping, decay):
    """The SWAP a full rescoring picks: ``(edge, front cost, extended cost)``.

    Every coupling edge touching a front operand is applied to a copy of
    ``mapping`` and both sets are rescored in full.  Candidates that lower
    the front cost win over those that do not; among them the lowest
    ``(score, edge)`` wins.
    """
    from repro.mapping.distance import DistanceMatrix

    distances = DistanceMatrix(architecture)
    gates = list(circuit)

    def cost(positions, nodes):
        return sum(distances.distance(positions[gates[n].qubits[0]],
                                      positions[gates[n].qubits[1]]) for n in nodes)

    front_positions = {mapping[q] for node in front for q in gates[node].qubits}
    before = cost(mapping, front)
    scored = []
    for a, b in architecture.coupling_edges():
        if a not in front_positions and b not in front_positions:
            continue
        moved = {q: b if p == a else a if p == b else p for q, p in mapping.items()}
        front_cost, extended_cost = cost(moved, front), cost(moved, extended)
        score = front_cost / max(1, len(front))
        if extended:
            score += parameters.extended_set_weight * extended_cost / len(extended)
        score *= max(decay[a], decay[b])
        scored.append((front_cost < before, score, (a, b), front_cost, extended_cost))
    improving = [entry for entry in scored if entry[0]]
    _, _, edge, front_cost, extended_cost = min(
        improving or scored, key=lambda entry: (entry[1], entry[2])
    )
    return edge, front_cost, extended_cost


@st.composite
def decision_cases(draw):
    """A chip, a circuit on part of it, a random placement and decay state."""
    architecture = draw(rectangle_architectures())
    num_qubits = draw(st.integers(2, architecture.num_qubits))
    circuit = draw(random_circuits(num_qubits))
    physical = draw(st.permutations(architecture.qubits))
    # Extra logical keys beyond the register pin physical qubits but never
    # appear in a gate.
    placed = draw(st.integers(num_qubits, architecture.num_qubits))
    mapping = {logical: physical[logical] for logical in range(placed)}
    decay = {q: 1.0 + 0.001 * draw(st.integers(0, 4)) for q in architecture.qubits}
    return architecture, circuit, mapping, decay


class TestSwapChoiceMatchesFullRescoring:
    @given(case=decision_cases(), extended_set_size=st.sampled_from([0, 3, 20]),
           data=st.data())
    @settings(max_examples=examples(150))
    def test_choose_swap_matches_brute_force(self, case, extended_set_size, data):
        """Decisions on real states (the blocked front and its look-ahead)
        and on arbitrary gate sets, where adjacent or overlapping gates
        leave no improving candidate and the fallback decides."""
        architecture, circuit, mapping, decay = case
        parameters = SabreParameters(extended_set_size=extended_set_size)
        router = SabreRouter(architecture, parameters)
        dag = PackedDAG.from_circuit(circuit)
        two_qubit = [index for index, gate in enumerate(circuit) if gate.is_two_qubit]
        assume(two_qubit)
        if data.draw(st.booleans(), label="arbitrary gate sets"):
            front = sorted(data.draw(st.lists(st.sampled_from(two_qubit), min_size=1,
                                              unique=True), label="front"))
            extended = data.draw(st.lists(st.sampled_from(two_qubit), unique=True,
                                          max_size=extended_set_size), label="extended")
        else:
            front = blocked_front(circuit, architecture, mapping)
            assume(front)
            extended = dag.lookahead(front, extended_set_size)

        index_of = router.distances.index_of
        occupant = [None] * len(router.distances.qubits)
        for logical, physical in mapping.items():
            occupant[index_of(physical)] = logical
        pos = [index_of(mapping[logical]) for logical in range(circuit.num_qubits)]
        decay_by_index = [decay[q] for q in router.distances.qubits]

        def base(nodes):
            return sum(router.distances.distance(mapping[dag.qa[n]], mapping[dag.qb[n]])
                       for n in nodes)

        chosen = router._choose_swap(
            pos, occupant, _partners(front, dag.qa, dag.qb), _partners(extended, dag.qa, dag.qb),
            len(front), len(extended), base(front), base(extended), decay_by_index,
        )
        edge, front_cost, extended_cost = reference_choice(
            architecture, parameters, circuit, front, extended, mapping, decay
        )
        index_a, index_b, delta_front, delta_extended = chosen
        physical = router.distances.qubits
        assert (physical[index_a], physical[index_b]) == edge
        assert base(front) + delta_front == front_cost
        assert base(extended) + delta_extended == extended_cost


@st.composite
def differential_cases(draw):
    """A chip (4-qubit buses included), a circuit of up to 150 gates on
    part of it, and a placement whose key order is shuffled and which may
    pin extra logical keys beyond the register."""
    architecture = draw(st.one_of(
        rectangle_architectures(),
        st.sampled_from([ibm_16q_2x8(True), ibm_20q_4x5(True), ibm_20q_4x5(False)]),
    ))
    num_qubits = draw(st.integers(2, architecture.num_qubits))
    operations = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, num_qubits - 1),
                  st.integers(0, num_qubits - 2)),
        min_size=1, max_size=150,
    ))
    circuit = QuantumCircuit(num_qubits, name="differential")
    for kind, a, b in operations:
        b += b >= a
        circuit.append(h(a) if kind == 0 else swap(a, b) if kind == 1 else cx(a, b))
    physical = draw(st.permutations(architecture.qubits))
    placed = draw(st.integers(num_qubits, architecture.num_qubits))
    order = draw(st.permutations(range(placed)))
    return architecture, circuit, {logical: physical[logical] for logical in order}


differential_parameters = st.builds(
    SabreParameters,
    extended_set_size=st.sampled_from([0, 1, 20]),
    decay_factor=st.sampled_from([0.001, 0.5, 3.0]),
    decay_reset_interval=st.sampled_from([1, 5, 1000]),
    stall_threshold=st.sampled_from([None, 0, 2]),
    # A budget of one swap per gate makes some routings fail.
    max_swaps_per_gate=st.sampled_from([1, 64]),
    passes=st.sampled_from([1, 3]),
    restarts=st.sampled_from([1, 2]),
)


def native_kernel():
    """The C routing pass, whichever backend is active."""
    previous = merge_kernel.active_backend()
    merge_kernel.set_backend("native")
    try:
        return merge_kernel.native_kernel("sabre_pass")
    finally:
        merge_kernel.set_backend(previous)


def routing_outcome(router: SabreRouter, circuit: QuantumCircuit, mapping: Dict[int, int]):
    """Everything a routing decides, or the exception it raises."""
    reverse = None
    if router.parameters.passes > 1:
        reverse = PackedDAG.from_circuit(circuit, reverse=True)
    try:
        log = router.route_packed(PackedDAG.from_circuit(circuit), reverse, mapping)
    except (RuntimeError, ValueError) as error:
        return type(error), str(error)
    return (log.events, log.num_swaps, list(log.initial_mapping.items()),
            list(log.final_mapping.items()))


@pytest.mark.skipif("native" not in merge_kernel.available_backends(),
                    reason="native library unavailable: no C toolchain")
class TestNativePassMatchesPythonPass:
    @given(case=differential_cases(), parameters=differential_parameters)
    @settings(max_examples=examples(150))
    def test_single_pass_is_identical(self, case, parameters):
        """One forward pass: the C pass decides exactly what the Python
        pass decides, and declines (None) exactly where it raises."""
        architecture, circuit, mapping = case
        router = SabreRouter(architecture, parameters)
        dag = PackedDAG.from_circuit(circuit)
        python_events: List[int] = []
        try:
            expected = router._python_pass(dag, mapping, python_events)
        except RuntimeError:
            expected = None
        native_events: List[int] = []
        native = router._native_pass(native_kernel(), dag, mapping, native_events)
        if expected is None:
            assert native is None
            return
        assert native is not None
        assert native_events == python_events
        assert native[0] == expected[0]
        assert list(native[1].items()) == list(expected[1].items())

    @given(case=differential_cases(), parameters=differential_parameters)
    @settings(max_examples=examples(100))
    def test_routing_is_identical_on_both_backends(self, case, parameters):
        """Passes, restarts and errors included, the backend never shows."""
        architecture, circuit, mapping = case
        previous = merge_kernel.active_backend()
        try:
            outcomes = []
            for backend in ("native", "numpy"):
                merge_kernel.set_backend(backend)
                outcomes.append(
                    routing_outcome(SabreRouter(architecture, parameters), circuit, mapping)
                )
        finally:
            merge_kernel.set_backend(previous)
        assert outcomes[0] == outcomes[1]
