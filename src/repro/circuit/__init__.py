"""Quantum circuit intermediate representation.

This subpackage provides the circuit substrate used by the rest of the
library: gate objects, a :class:`QuantumCircuit` container, the packed
dependency order the SWAP router runs on (:mod:`repro.circuit.dag`),
multi-controlled gate decomposition into the CNOT + single-qubit basis,
and OpenQASM 2.0 import/export.
"""

from repro.circuit.gates import (
    Gate,
    GateKind,
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    barrier,
    cx,
    cz,
    h,
    measure,
    rx,
    ry,
    rz,
    s,
    sdg,
    swap,
    t,
    tdg,
    u1,
    u2,
    u3,
    x,
    y,
    z,
)
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.decompose import decompose_circuit, decompose_mcx, decompose_toffoli
from repro.circuit.qasm import QasmError, circuit_from_qasm, circuit_to_qasm

__all__ = [
    "Gate",
    "GateKind",
    "QuantumCircuit",
    "ONE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "decompose_circuit",
    "decompose_toffoli",
    "decompose_mcx",
    "circuit_from_qasm",
    "circuit_to_qasm",
    "QasmError",
    "h",
    "x",
    "y",
    "z",
    "s",
    "sdg",
    "t",
    "tdg",
    "rx",
    "ry",
    "rz",
    "u1",
    "u2",
    "u3",
    "cx",
    "cz",
    "swap",
    "measure",
    "barrier",
]
