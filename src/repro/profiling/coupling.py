"""Coupling strength matrix and coupling degree list (paper Section 3.1).

These functions implement exactly the profiling procedure illustrated by
Figure 4 of the paper: single-qubit gates, initialization, and
measurements are ignored; each two-qubit gate adds one to the symmetric
coupling strength matrix; the coupling degree of a qubit is the sum of
the weights of its incident edges in the logical coupling graph, whose
edges are the matrix's non-zero entries.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit


def coupling_strength_matrix(circuit: QuantumCircuit) -> np.ndarray:
    """The symmetric matrix of two-qubit gate counts per logical qubit pair.

    Entry ``(i, j)`` is the number of two-qubit gate instances acting on
    logical qubits ``i`` and ``j`` (regardless of which is the control).
    The diagonal is zero.
    """
    n = circuit.num_qubits
    pairs = circuit.two_qubit_pairs()
    if not pairs:
        return np.zeros((n, n), dtype=np.int64)
    a, b = np.array(pairs, dtype=np.int64).T
    counts = np.bincount(a * n + b, minlength=n * n).astype(np.int64).reshape(n, n)
    return counts + counts.T


def coupling_degrees(circuit: QuantumCircuit) -> np.ndarray:
    """Per-qubit coupling degree: total number of two-qubit gates on each qubit."""
    return coupling_strength_matrix(circuit).sum(axis=1)


def degree_list_of(matrix: np.ndarray) -> List[Tuple[int, int]]:
    """Qubits of a coupling strength matrix sorted by degree, descending.

    Returns:
        A list of ``(qubit_index, coupling_degree)`` pairs.  Ties are broken
        by qubit index so the ordering is deterministic.
    """
    degrees = matrix.sum(axis=1).tolist()
    order = sorted(range(len(degrees)), key=lambda q: (-degrees[q], q))
    return [(q, degrees[q]) for q in order]


def coupling_degree_list(circuit: QuantumCircuit) -> List[Tuple[int, int]]:
    """Qubits sorted by coupling degree, descending (paper Figure 4 (d))."""
    return degree_list_of(coupling_strength_matrix(circuit))
