"""Unit tests for the packed dependency order the router runs on."""

from repro.circuit import QuantumCircuit, barrier, cx, h, measure
from repro.circuit.dag import PackedDAG


def build(num_qubits, gates):
    return QuantumCircuit(num_qubits).extend(gates)


def pack(num_qubits, gates, reverse=False):
    return PackedDAG.from_circuit(build(num_qubits, gates), reverse=reverse)


def run_in_circuit_order(packed):
    """Run a pack's nodes in circuit order the way the router does.

    A node may run once its predecessor count reaches zero; running it
    decrements each successor.  Returns the positions run, in order.
    """
    remaining = list(packed.num_preds)
    ran = []
    for position, count in enumerate(packed.num_preds):
        if count < 0:
            continue
        assert remaining[position] == 0, f"node {position} runs before its predecessors"
        ran.append(position)
        for successor in packed.successors[position]:
            remaining[successor] -= 1
    return ran


class TestPackOrder:
    def test_independent_gates_have_no_edges(self):
        packed = pack(2, [h(0), h(1)])
        assert packed.num_preds == [0, 0]
        assert packed.successors == [[], []]

    def test_serial_dependency_on_same_qubit(self):
        packed = pack(1, [h(0), h(0)])
        assert packed.num_preds == [0, 1]
        assert packed.successors == [[1], []]

    def test_two_qubit_gate_depends_on_both_operands(self):
        packed = pack(3, [h(0), h(1), cx(0, 1)])
        assert packed.num_preds[2] == 2
        assert packed.successors[:2] == [[2], [2]]

    def test_shared_predecessor_counts_once(self):
        packed = pack(2, [cx(0, 1), cx(0, 1)])
        assert packed.num_preds == [0, 1]
        assert packed.successors == [[1], []]

    def test_front_layer_initial(self):
        assert pack(3, [cx(0, 1), cx(1, 2), h(0)]).front == [0]

    def test_edges_point_forward(self):
        # Every edge points forward in the circuit, so circuit order is
        # one valid execution order.
        packed = pack(4, [cx(0, 1), cx(2, 3), cx(1, 2), h(0), cx(0, 1)])
        for position, successors in enumerate(packed.successors):
            assert all(successor > position for successor in successors)
        assert packed.successors == [[2, 3], [2], [4], [4], []]

    def test_circuit_order_runs_every_node(self):
        packed = pack(3, [h(0), cx(0, 1), cx(1, 2), measure(2)])
        assert run_in_circuit_order(packed) == [0, 1, 2, 3]
        assert packed.num_nodes == 4

    def test_barrier_orders_gates_but_is_not_a_node(self):
        packed = pack(2, [h(0), barrier(0, 1), h(1)])
        assert packed.num_nodes == 2
        # h(1) must come after h(0) because of the barrier between them.
        assert packed.num_preds == [0, -1, 1]
        assert packed.successors == [[2], [], []]

    def test_barrier_without_qubits_spans_everything(self):
        packed = pack(3, [h(0), barrier(), h(2)])
        assert packed.num_preds == [0, -1, 1]
        assert packed.successors[0] == [2]

    def test_chained_barriers_pass_predecessors_on(self):
        # h(0) reaches h(2) through both barriers, though no gate shares
        # a qubit with it.
        packed = pack(3, [h(0), barrier(0, 1), barrier(1, 2), h(2)])
        assert packed.num_preds == [0, -1, -1, 1]
        assert packed.successors[0] == [3]
        assert packed.front == [0]

    def test_measurement_depends_on_prior_gates(self):
        packed = pack(2, [cx(0, 1), measure(1)])
        assert packed.num_preds == [0, 1]


class TestPackFront:
    def test_front_holds_the_unblocked_gates(self):
        packed = pack(2, [h(0), cx(0, 1)])
        assert packed.num_nodes == 2
        assert packed.front == [0]

    def test_running_a_node_unblocks_its_successors(self):
        # Running node 0 takes node 1's only predecessor.
        packed = pack(2, [h(0), cx(0, 1)])
        assert packed.successors[0] == [1]
        assert packed.num_preds[1] == 1

    def test_gate_with_predecessors_is_not_in_front(self):
        packed = pack(2, [h(0), cx(0, 1)])
        assert 1 not in packed.front
        assert packed.num_preds[1] > 0

    def test_running_every_node_finishes_the_pack(self):
        packed = pack(2, [h(0), h(1), cx(0, 1)])
        assert len(run_in_circuit_order(packed)) == packed.num_nodes == 3

    def test_front_nodes_sorted_by_index(self):
        assert pack(3, [h(2), h(0), h(1)]).front == [0, 1, 2]

    def test_walk_skips_the_barrier_position(self):
        packed = pack(2, [h(0), h(1), cx(0, 1), barrier(), h(1)])
        assert packed.num_nodes == 4
        assert run_in_circuit_order(packed) == [0, 1, 2, 4]


class TestPackedDAG:
    def test_lookahead_returns_two_qubit_gates_beyond_front(self):
        circuit = build(3, [cx(0, 1), h(2), cx(1, 2), cx(0, 1)])
        packed = PackedDAG.from_circuit(circuit)
        assert packed.front == [0, 1]
        # Breadth-first from the front's successors, in successor order.
        assert packed.lookahead(packed.front, depth=5) == [2, 3]

    def test_lookahead_respects_depth_limit(self):
        gates = [cx(0, 1)] + [cx(0, 1) for _ in range(10)]
        packed = PackedDAG.from_circuit(build(2, gates))
        assert packed.lookahead(packed.front, depth=3) == [1, 2, 3]

    def test_lookahead_zero_depth_is_empty(self):
        gates = [cx(0, 1), cx(0, 1)]
        packed = PackedDAG.from_circuit(build(2, gates))
        assert packed.lookahead(packed.front, depth=0) == []

    def test_lookahead_skips_single_qubit_gates(self):
        circuit = build(2, [cx(0, 1), h(0), measure(1), cx(0, 1)])
        packed = PackedDAG.from_circuit(circuit)
        assert packed.lookahead(packed.front, depth=5) == [3]

    def test_tables_match_the_dag(self):
        circuit = build(3, [h(0), cx(0, 1), barrier(0, 1), cx(1, 2), measure(2)])
        packed = PackedDAG.from_circuit(circuit)
        assert packed.num_qubits == 3
        assert packed.num_nodes == 4
        assert packed.num_two_qubit == circuit.num_two_qubit_gates == 2
        assert packed.qa == [-1, 0, -1, 1, -1]
        assert packed.qb == [-1, 1, -1, 2, -1]
        assert list(packed.two_qubit) == [0, 1, 0, 1, 0]
        # The barrier's position holds no node.
        assert packed.num_preds == [0, 1, -1, 1, 1]
        assert packed.successors == [[1], [3], [], [4], []]
        assert packed.front == [0]

    def test_reverse_pack_walks_the_gates_backwards(self):
        circuit = build(3, [cx(0, 1), cx(1, 2), h(0)])
        packed = PackedDAG.from_circuit(circuit, reverse=True)
        assert packed.qa == [-1, 1, 0]
        assert packed.qb == [-1, 2, 1]
        assert packed.front == [0, 1]
        assert packed.successors == [[2], [2], []]

    def test_reverse_pack_passes_barriers_on_backwards(self):
        # Reversed: h(2), barrier(), h(0), cx(0, 1).
        packed = PackedDAG.from_circuit(build(3, [cx(0, 1), h(0), barrier(), h(2)]),
                                        reverse=True)
        assert packed.num_preds == [0, -1, 1, 2]
        assert packed.successors == [[2, 3], [], [3], []]
        assert packed.front == [0]
