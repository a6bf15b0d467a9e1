"""Tests for the program profiler (paper Section 3, Figure 4)."""

import numpy as np
import pytest

from repro.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.circuit import QuantumCircuit, cx, h, measure
from repro.profiling import (
    coupling_degree_list,
    coupling_degrees,
    coupling_strength_matrix,
    profile_circuit,
)


class TestPaperFigure4Example:
    """The worked example of the paper's Figure 4."""

    def test_strength_matrix_matches_figure(self, paper_example_circuit):
        matrix = coupling_strength_matrix(paper_example_circuit)
        expected = np.array(
            [
                [0, 1, 0, 0, 2],
                [1, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
                [2, 1, 1, 1, 0],
            ]
        )
        assert (matrix == expected).all()

    def test_degree_list_matches_figure(self, paper_example_circuit):
        degrees = coupling_degree_list(paper_example_circuit)
        assert degrees[0] == (4, 5)
        assert degrees[1] == (0, 3)
        assert degrees[2] == (1, 2)
        assert dict(degrees)[2] == 1
        assert dict(degrees)[3] == 1

    def test_coupling_graph_edges(self, paper_example_circuit):
        profile = profile_circuit(paper_example_circuit)
        assert profile.coupled_pairs() == [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)]
        assert profile.edge_weight_map()[(0, 4)] == 2

    def test_single_qubit_gates_and_measurements_ignored(self, paper_example_circuit):
        only_two_qubit = QuantumCircuit(5)
        for gate in paper_example_circuit:
            if gate.is_two_qubit:
                only_two_qubit.append(gate)
        full = coupling_strength_matrix(paper_example_circuit)
        reduced = coupling_strength_matrix(only_two_qubit)
        assert (full == reduced).all()


class TestCouplingMatrix:
    def test_matrix_is_symmetric(self, line_circuit):
        matrix = coupling_strength_matrix(line_circuit)
        assert (matrix == matrix.T).all()

    def test_diagonal_is_zero(self, line_circuit):
        assert (np.diag(coupling_strength_matrix(line_circuit)) == 0).all()

    def test_direction_of_cnot_is_irrelevant(self):
        forward = QuantumCircuit(2).extend([cx(0, 1)])
        backward = QuantumCircuit(2).extend([cx(1, 0)])
        assert (
            coupling_strength_matrix(forward) == coupling_strength_matrix(backward)
        ).all()

    def test_total_equals_twice_two_qubit_gate_count(self, line_circuit):
        matrix = coupling_strength_matrix(line_circuit)
        assert matrix.sum() == 2 * line_circuit.num_two_qubit_gates

    def test_empty_circuit_gives_zero_matrix(self):
        matrix = coupling_strength_matrix(QuantumCircuit(4))
        assert matrix.shape == (4, 4)
        assert matrix.sum() == 0

    def test_degrees_are_row_sums(self, line_circuit):
        matrix = coupling_strength_matrix(line_circuit)
        assert (coupling_degrees(line_circuit) == matrix.sum(axis=1)).all()


class TestDegreeList:
    def test_descending_order(self, line_circuit):
        degrees = [degree for _qubit, degree in coupling_degree_list(line_circuit)]
        assert degrees == sorted(degrees, reverse=True)

    def test_ties_broken_by_qubit_index(self):
        circuit = QuantumCircuit(4).extend([cx(0, 1), cx(2, 3)])
        assert coupling_degree_list(circuit) == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_every_qubit_appears_once(self, line_circuit):
        qubits = [qubit for qubit, _degree in coupling_degree_list(line_circuit)]
        assert sorted(qubits) == list(range(line_circuit.num_qubits))

    def test_isolated_qubit_has_zero_degree(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1)])
        assert dict(coupling_degree_list(circuit))[2] == 0


class TestCircuitProfile:
    def test_profile_fields(self, paper_example_circuit):
        profile = profile_circuit(paper_example_circuit)
        assert profile.num_qubits == 5
        assert profile.num_two_qubit_gates == 6
        assert profile.num_gates == len(paper_example_circuit)
        assert profile.circuit_name == "figure4_example"

    def test_strength_accessor(self, paper_example_circuit):
        profile = profile_circuit(paper_example_circuit)
        assert profile.strength(0, 4) == 2
        assert profile.strength(4, 0) == 2
        assert profile.strength(2, 3) == 0

    def test_degree_accessor(self, paper_example_circuit):
        profile = profile_circuit(paper_example_circuit)
        assert profile.degree(4) == 5

    def test_neighbors(self, paper_example_circuit):
        profile = profile_circuit(paper_example_circuit)
        assert profile.neighbors(4) == [0, 1, 2, 3]
        assert profile.neighbors(2) == [4]

    def test_coupled_pairs_sorted_and_unique(self, paper_example_circuit):
        pairs = profile_circuit(paper_example_circuit).coupled_pairs()
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_max_strength(self, paper_example_circuit):
        assert profile_circuit(paper_example_circuit).max_strength == 2

    def test_graph_includes_isolated_vertices(self):
        circuit = QuantumCircuit(4).extend([cx(0, 1)])
        profile = profile_circuit(circuit)
        assert [profile.neighbors(q) for q in range(profile.num_qubits)] == [
            [1], [0], [], []
        ]

    def test_summary_keys(self, paper_example_circuit):
        summary = profile_circuit(paper_example_circuit).summary()
        assert summary["num_coupled_pairs"] == 5
        assert summary["max_pair_strength"] == 2


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_profile_matches_gate_loop_reference(name):
    """Every profile field equals a direct walk of the gate list."""
    circuit = get_benchmark(name)
    n = circuit.num_qubits
    matrix = np.zeros((n, n), dtype=np.int64)
    for gate in circuit.gates:
        if gate.is_two_qubit:
            a, b = gate.qubits
            matrix[a, b] += 1
            matrix[b, a] += 1
    weights = {(i, j): int(matrix[i, j])
               for i in range(n) for j in range(i + 1, n) if matrix[i, j]}

    profile = profile_circuit(circuit)
    assert profile.strength_matrix.dtype == np.int64
    assert (profile.strength_matrix == matrix).all()
    assert profile.num_two_qubit_gates == circuit.num_two_qubit_gates
    assert profile.edge_weight_map() == weights
    assert profile.coupled_pairs() == sorted(weights)
    for qubit in range(n):
        assert profile.neighbors(qubit) == sorted(
            other for pair in weights for other in pair
            if qubit in pair and other != qubit
        )
