"""Unit tests for the circuit dependency DAG, execution frontier and packed DAG."""

import pytest

from repro.circuit import QuantumCircuit, barrier, cx, h, measure
from repro.circuit.dag import CircuitDAG, ExecutionFrontier, PackedDAG


def build(num_qubits, gates):
    return QuantumCircuit(num_qubits).extend(gates)


class TestCircuitDAG:
    def test_independent_gates_have_no_edges(self):
        dag = CircuitDAG(build(2, [h(0), h(1)]))
        assert all(not node.predecessors for node in dag.nodes())
        assert all(not node.successors for node in dag.nodes())

    def test_serial_dependency_on_same_qubit(self):
        dag = CircuitDAG(build(1, [h(0), h(0)]))
        assert dag.node(1).predecessors == {0}
        assert dag.node(0).successors == {1}

    def test_two_qubit_gate_depends_on_both_operands(self):
        dag = CircuitDAG(build(3, [h(0), h(1), cx(0, 1)]))
        assert dag.node(2).predecessors == {0, 1}

    def test_front_layer_initial(self):
        dag = CircuitDAG(build(3, [cx(0, 1), cx(1, 2), h(0)]))
        front = {node.index for node in dag.front_layer()}
        assert front == {0}

    def test_topological_order_is_valid(self):
        circuit = build(4, [cx(0, 1), cx(2, 3), cx(1, 2), h(0), cx(0, 1)])
        dag = CircuitDAG(circuit)
        order = [node.index for node in dag.topological_order()]
        position = {index: i for i, index in enumerate(order)}
        for node in dag.nodes():
            for pred in node.predecessors:
                assert position[pred] < position[node.index]

    def test_topological_order_covers_all_nodes(self):
        circuit = build(3, [h(0), cx(0, 1), cx(1, 2), measure(2)])
        dag = CircuitDAG(circuit)
        assert len(dag.topological_order()) == dag.num_nodes == 4

    def test_barrier_orders_gates_but_is_not_a_node(self):
        circuit = build(2, [h(0), barrier(0, 1), h(1)])
        dag = CircuitDAG(circuit)
        assert dag.num_nodes == 2
        # h(1) must come after h(0) because of the barrier between them.
        assert dag.node(2).predecessors == {0}

    def test_barrier_without_qubits_spans_everything(self):
        circuit = build(3, [h(0), barrier(), h(2)])
        dag = CircuitDAG(circuit)
        assert dag.node(2).predecessors == {0}

    def test_measurement_depends_on_prior_gates(self):
        dag = CircuitDAG(build(2, [cx(0, 1), measure(1)]))
        assert dag.node(1).predecessors == {0}


class TestExecutionFrontier:
    def test_initially_not_done(self):
        frontier = ExecutionFrontier(CircuitDAG(build(2, [h(0), cx(0, 1)])))
        assert not frontier.done
        assert frontier.num_executed == 0

    def test_execute_unblocks_successors(self):
        frontier = ExecutionFrontier(CircuitDAG(build(2, [h(0), cx(0, 1)])))
        unblocked = frontier.execute(0)
        assert [node.index for node in unblocked] == [1]

    def test_execute_non_front_gate_raises(self):
        frontier = ExecutionFrontier(CircuitDAG(build(2, [h(0), cx(0, 1)])))
        with pytest.raises(ValueError):
            frontier.execute(1)

    def test_done_after_all_executed(self):
        frontier = ExecutionFrontier(CircuitDAG(build(2, [h(0), h(1), cx(0, 1)])))
        for index in (0, 1, 2):
            frontier.execute(index)
        assert frontier.done

    def test_front_nodes_sorted_by_index(self):
        frontier = ExecutionFrontier(CircuitDAG(build(3, [h(2), h(0), h(1)])))
        assert [node.index for node in frontier.front_nodes()] == [0, 1, 2]

    def test_remaining_counts_down(self):
        frontier = ExecutionFrontier(CircuitDAG(build(2, [h(0), h(1), cx(0, 1)])))
        assert frontier.remaining == 3
        frontier.execute(0)
        assert frontier.remaining == 2
        frontier.execute(1)
        frontier.execute(2)
        assert frontier.remaining == 0
        assert frontier.done


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
        dag = CircuitDAG(circuit)
        packed = PackedDAG.from_circuit(circuit)
        assert packed.num_qubits == 3
        assert packed.num_nodes == dag.num_nodes == 4
        assert packed.num_two_qubit == circuit.num_two_qubit_gates == 2
        assert packed.qa == [-1, 0, -1, 1, -1]
        assert packed.qb == [-1, 1, -1, 2, -1]
        assert list(packed.two_qubit) == [0, 1, 0, 1, 0]
        # The removed barrier's position holds no node.
        assert packed.num_preds == [0, 1, -1, 1, 1]
        assert packed.successors == [[1], [3], [], [4], []]
        assert packed.front == [node.index for node in dag.front_layer()]

    def test_reverse_pack_walks_the_gates_backwards(self):
        circuit = build(3, [cx(0, 1), cx(1, 2), h(0)])
        packed = PackedDAG.from_circuit(circuit, reverse=True)
        assert packed.qa == [-1, 1, 0]
        assert packed.qb == [-1, 2, 1]
        assert packed.front == [0, 1]
        assert packed.successors == [[2], [2], []]
