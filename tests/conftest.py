"""Shared fixtures for the test suite.

Fixtures keep Monte Carlo trial counts small so the whole suite stays
fast; correctness of the statistics themselves is covered by dedicated
tests with larger counts where needed.
"""

from __future__ import annotations

import pytest

from repro.benchmarks import get_benchmark
from repro.circuit import QuantumCircuit, cx, h, measure
from repro.collision import YieldSimulator, merge_kernel
from repro.design import DesignFlow
from repro.hardware import Architecture, Lattice, ibm_16q_2x8
from repro.runtime.metrics import global_metrics


@pytest.fixture
def paper_example_circuit() -> QuantumCircuit:
    """The 5-qubit example circuit of the paper's Figure 4.

    Two-qubit gates: two between (q0, q4) and one each on (q1, q4),
    (q2, q4), (q3, q4), (q0, q1), so the degree list is
    q4:5, q0:3, q1:2, q2:1, q3:1.
    """
    circuit = QuantumCircuit(5, name="figure4_example")
    for qubit in range(5):
        circuit.append(h(qubit))
    circuit.append(cx(0, 4))
    circuit.append(cx(1, 4))
    circuit.append(cx(0, 1))
    circuit.append(cx(2, 4))
    circuit.append(cx(3, 4))
    circuit.append(cx(0, 4))
    for qubit in range(5):
        circuit.append(measure(qubit))
    return circuit


@pytest.fixture
def line_circuit() -> QuantumCircuit:
    """A 6-qubit circuit whose coupling graph is a simple chain."""
    circuit = QuantumCircuit(6, name="line6")
    for _ in range(3):
        for qubit in range(5):
            circuit.append(cx(qubit, qubit + 1))
    return circuit


@pytest.fixture
def small_benchmark() -> QuantumCircuit:
    """The smallest paper benchmark (7 qubits), used for end-to-end tests."""
    return get_benchmark("sym6_145")


@pytest.fixture
def sym6_architecture(small_benchmark) -> Architecture:
    """A designed architecture for the sym6 benchmark (fast settings)."""
    from repro.design import DesignOptions

    flow = DesignFlow(small_benchmark, DesignOptions(local_trials=300))
    return flow.design(max_four_qubit_buses=1)


@pytest.fixture
def ibm16(scope="session") -> Architecture:
    """IBM 16-qubit 2x8 baseline without 4-qubit buses."""
    return ibm_16q_2x8(use_four_qubit_buses=False)


@pytest.fixture
def fast_simulator() -> YieldSimulator:
    """A low-trial-count yield simulator for quick checks."""
    return YieldSimulator(trials=1000, seed=13)


@pytest.fixture
def square_lattice_3x3() -> Lattice:
    """A fully occupied 3x3 lattice."""
    return Lattice.rectangle(3, 3)


class AllocationCalls:
    """Algorithm 3 searches since the last :meth:`reset`.

    Reads the ``design/allocation_calls`` counter of the process metrics
    registry, which also holds the merged deltas of forked sweep workers.
    """

    def __init__(self) -> None:
        self.reset()

    @staticmethod
    def _total() -> int:
        return global_metrics().counter("design/allocation_calls")

    def reset(self) -> None:
        self._baseline = self._total()

    def __call__(self) -> int:
        return self._total() - self._baseline


@pytest.fixture
def allocation_calls() -> AllocationCalls:
    """Counts Algorithm 3 searches from the moment the test starts."""
    return AllocationCalls()


@pytest.fixture
def merge_backend():
    """Switch the merge-kernel backend inside a test: ``merge_backend(name)``.

    ``native`` counts Algorithm 3 candidates (and routes, draws the
    noise and counts yield survivors) in C; ``numpy`` runs the numpy and
    Python references.  Asking for ``native``
    without a C toolchain skips the test.  The previously active backend
    is restored afterwards.
    """
    previous = merge_kernel.active_backend()

    def switch(name: str) -> None:
        if name not in merge_kernel.available_backends():
            pytest.skip("native library unavailable: no C toolchain")
        merge_kernel.set_backend(name)

    try:
        yield switch
    finally:
        merge_kernel.set_backend(previous)


@pytest.fixture(params=["native", "numpy"])
def routing_backend(request, merge_backend):
    """Run on the C library (``native``: C routing pass, Algorithm 3
    counted in C) or without it (``numpy``: Python pass, numpy ranking)."""
    merge_backend(request.param)
    return request.param
