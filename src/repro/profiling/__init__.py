"""Architecture-design-oriented program profiling (paper Section 3).

The profiler extracts the two quantities the design flow consumes:

* the **coupling strength matrix** — a symmetric ``n x n`` integer matrix
  whose ``(i, j)`` entry counts two-qubit gates between logical qubits
  ``i`` and ``j``;
* the **coupling degree list** — logical qubits sorted by the total
  number of two-qubit gates they participate in, in descending order.
"""

from repro.profiling.coupling import (
    coupling_degree_list,
    coupling_degrees,
    coupling_strength_matrix,
)
from repro.profiling.profiler import CircuitProfile, profile_circuit
from repro.profiling.patterns import CouplingPattern, classify_pattern

__all__ = [
    "coupling_strength_matrix",
    "coupling_degrees",
    "coupling_degree_list",
    "CircuitProfile",
    "profile_circuit",
    "CouplingPattern",
    "classify_pattern",
]
