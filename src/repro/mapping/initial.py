"""Initial logical-to-physical qubit placement.

For the application-specific architectures generated by the design flow,
the layout subroutine already produced a pseudo-mapping (physical qubit
id = logical qubit id) and the router simply starts from it.  For the
general-purpose IBM baselines no such mapping exists, so we compute one
with a coupling-driven greedy placement that mirrors Algorithm 1 but
targets a *fixed* coupling graph instead of an empty lattice: logical
qubits are placed in coupling-degree order on the physical qubit that
minimizes the strength-weighted distance to the already placed logical
neighbours.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.hardware.architecture import Architecture
from repro.mapping.distance import DistanceMatrix
from repro.profiling.profiler import CircuitProfile


def initial_mapping(
    profile: CircuitProfile,
    architecture: Architecture,
    distances: Optional[DistanceMatrix] = None,
) -> Dict[int, int]:
    """Compute an initial logical -> physical mapping.

    Args:
        profile: Profiling result of the circuit being mapped.
        architecture: Target architecture.
        distances: Optional precomputed distance matrix (recomputed when
            omitted).

    Returns:
        A dict mapping every logical qubit (0 .. n_logical-1) to a distinct
        physical qubit of the architecture.

    Raises:
        ValueError: When the architecture has fewer physical qubits than the
            circuit has logical qubits.
    """
    if architecture.num_qubits < profile.num_qubits:
        raise ValueError(
            f"architecture {architecture.name!r} has {architecture.num_qubits} qubits but the "
            f"circuit needs {profile.num_qubits}"
        )
    if architecture.logical_to_physical and _covers_circuit(
        architecture.logical_to_physical, profile.num_qubits, architecture
    ):
        return dict(architecture.logical_to_physical)

    distances = distances or DistanceMatrix(architecture)
    return _greedy_mapping(profile, architecture, distances)


def _covers_circuit(
    mapping: Dict[int, int], num_logical: int, architecture: Architecture
) -> bool:
    """True when the recorded pseudo-mapping is usable for this circuit."""
    physical = set(architecture.qubits)
    targets = [mapping.get(logical) for logical in range(num_logical)]
    if any(target is None or target not in physical for target in targets):
        return False
    return len(set(targets)) == num_logical


def _greedy_mapping(
    profile: CircuitProfile,
    architecture: Architecture,
    distances: DistanceMatrix,
) -> Dict[int, int]:
    """Coupling-driven greedy placement onto the physical coupling graph."""
    adjacency = architecture.adjacency()
    physical_degree = {q: len(adjacency[q]) for q in architecture.qubits}
    mapping: Dict[int, int] = {}
    used: Set[int] = set()

    for logical, _degree in profile.degree_list:
        placed_neighbors = [other for other in profile.neighbors(logical) if other in mapping]
        best_physical = None
        best_key = None
        for physical in architecture.qubits:
            if physical in used:
                continue
            cost = 0.0
            for neighbor in placed_neighbors:
                cost += profile.strength(logical, neighbor) * distances.distance(
                    physical, mapping[neighbor]
                )
            # Prefer low cost; break ties on high physical degree (more routing
            # freedom) and then on qubit id for determinism.
            key = (cost, -physical_degree[physical], physical)
            if best_key is None or key < best_key:
                best_key = key
                best_physical = physical
        mapping[logical] = best_physical
        used.add(best_physical)
    return mapping
