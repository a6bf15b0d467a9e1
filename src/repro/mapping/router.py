"""Public entry point of the qubit mapping substrate.

:func:`route_circuit` maps a logical circuit onto an architecture and
returns a :class:`MappingResult` carrying the performance metric the
paper uses throughout Section 5: the total post-mapping gate count, where
each inserted SWAP costs three CNOTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.architecture import Architecture
from repro.mapping.sabre import RoutingLog, SabreParameters, swap_mapping
from repro.profiling.profiler import CircuitProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.engine import RoutingEngine

#: Number of CNOT gates required to implement one SWAP on hardware.
CNOTS_PER_SWAP = 3


@dataclass
class MappingResult:
    """Outcome of mapping a circuit onto an architecture.

    Attributes:
        circuit_name: Name of the mapped circuit.
        architecture_name: Name of the target architecture.
        original_gates: Gate count of the input circuit (all gate kinds).
        original_two_qubit_gates: Two-qubit gate count of the input circuit.
        num_swaps: SWAPs inserted by the router.
        initial_mapping: The logical -> physical mapping the router started from.
        final_mapping: The mapping after the last routed gate.
        routed_circuit: The physical circuit including explicit swap gates.
    """

    circuit_name: str
    architecture_name: str
    original_gates: int
    original_two_qubit_gates: int
    num_swaps: int
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    routed_circuit: Optional[QuantumCircuit] = None

    # With bidirectional passes or restarts enabled, ``initial_mapping`` is
    # the initial mapping of the *winning* forward pass (the mapping from
    # which replaying ``routed_circuit`` reproduces the logical circuit),
    # which may differ from the profile-driven placement the search began at.

    @property
    def total_gates(self) -> int:
        """Total post-mapping gate count (the paper's performance metric).

        Every original gate survives mapping unchanged; each inserted SWAP
        is charged as three CNOTs.
        """
        return self.original_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def total_two_qubit_gates(self) -> int:
        """Post-mapping two-qubit gate count."""
        return self.original_two_qubit_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_gates(self) -> int:
        """Gates added by routing."""
        return CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_ratio(self) -> float:
        """Routing overhead relative to the original gate count."""
        return self.overhead_gates / self.original_gates if self.original_gates else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "architecture": self.architecture_name,
            "original_gates": self.original_gates,
            "num_swaps": self.num_swaps,
            "total_gates": self.total_gates,
            "overhead_ratio": round(self.overhead_ratio, 4),
        }


def route_circuit(
    circuit: QuantumCircuit,
    architecture: Architecture,
    profile: Optional[CircuitProfile] = None,
    parameters: Optional[SabreParameters] = None,
    keep_routed_circuit: bool = True,
    engine: Optional["RoutingEngine"] = None,
) -> MappingResult:
    """Map ``circuit`` onto ``architecture`` and report the gate-count metric.

    Args:
        circuit: Logical circuit in the CNOT + single-qubit basis.
        architecture: Target hardware architecture.
        profile: Optional precomputed profile (saves recomputation when the
            caller already profiled the circuit).
        parameters: Optional router tuning parameters (must be omitted when
            ``engine`` is given; the engine's parameters apply).
        keep_routed_circuit: Set to False to drop the physical circuit and
            keep only the counts (saves memory in large sweeps).
        engine: Optional :class:`~repro.mapping.engine.RoutingEngine` to
            route through; shares per-architecture state and memoizes
            results across calls.  Without one, a throwaway engine is used
            (identical results, no reuse).
    """
    from repro.mapping.engine import RoutingEngine

    if engine is None:
        engine = RoutingEngine(parameters)
    elif parameters is not None and parameters != engine.parameters:
        raise ValueError(
            "pass routing parameters either directly or via the engine, not both"
        )
    return engine.route(
        circuit, architecture, profile=profile, keep_routed_circuit=keep_routed_circuit
    )


def verify_routing(
    logical: QuantumCircuit,
    routed: Union[QuantumCircuit, RoutingLog],
    architecture: Architecture,
    initial_mapping: Dict[int, int],
) -> None:
    """Check that a routing is a faithful execution of the logical circuit.

    ``routed`` is either the routed physical circuit or the router's event
    log of it (:class:`~repro.mapping.sabre.RoutingLog`).  Replaying it
    from ``initial_mapping`` while tracking swaps must:

    * put every two-qubit gate (including inserted swaps) on a coupled
      physical pair;
    * execute every logical gate exactly once, on the correct logical
      operands, and never violate the logical circuit's dependency order;
    * for a log, insert exactly ``routed.num_swaps`` swaps.

    The router may execute gates on disjoint qubits in a different order
    than the source circuit, so the replay checks against the dependency
    DAG rather than the literal gate sequence.

    The circuit replay indexes the executable front by (gate name,
    logical operands, params), so each routed gate is matched in O(1)
    instead of rescanning the whole front layer — the full check is
    linear in the routed gate count.

    Raises:
        AssertionError: When any check fails (this guards the evaluation
            pipeline against router bugs rather than user input errors).
    """
    coupled: Set[Tuple[int, int]] = set()
    for a, b in architecture.coupling_edges():
        coupled.add((a, b))
        coupled.add((b, a))
    if isinstance(routed, RoutingLog):
        _verify_log(logical, routed, architecture, initial_mapping, coupled)
        return
    from repro.circuit.dag import CircuitDAG, DAGNode, ExecutionFrontier

    physical_to_logical = {p: l for l, p in initial_mapping.items()}
    frontier = ExecutionFrontier(CircuitDAG(logical))
    # Two front gates can never share (name, operands, params): identical
    # operands imply a dependency chain, so each bucket holds at most one
    # live node and popping the sole entry matches the gate deterministically.
    front_index: Dict[Tuple, List[int]] = {}

    def index_node(node: DAGNode) -> None:
        key = (node.gate.name, node.gate.qubits, node.gate.params)
        front_index.setdefault(key, []).append(node.index)

    for node in frontier.front_nodes():
        index_node(node)

    get_logical = physical_to_logical.get
    get_bucket = front_index.get
    execute = frontier.execute
    for gate in routed.gates:
        if gate.is_two_qubit and tuple(gate.qubits) not in coupled:
            raise AssertionError(
                f"routed gate {gate} acts on uncoupled physical qubits "
                f"on architecture {architecture.name!r}"
            )
        if gate.name == "swap":
            phys_a, phys_b = gate.qubits
            logical_a = get_logical(phys_a)
            logical_b = get_logical(phys_b)
            # A swap can be a gate of the *program* rather than a router
            # insertion.  Try the logical interpretation first; this is
            # unambiguous for router output, because an executable logical
            # swap in the front would have been executed before the router
            # ever inserted a swap of its own on that coupled pair.
            if logical_a is not None and logical_b is not None:
                bucket = get_bucket(("swap", (logical_a, logical_b), gate.params))
                if bucket:
                    for unblocked in execute(bucket.pop(0)):
                        index_node(unblocked)
                    continue
            if logical_a is not None:
                physical_to_logical[phys_b] = logical_a
            else:
                physical_to_logical.pop(phys_b, None)
            if logical_b is not None:
                physical_to_logical[phys_a] = logical_b
            else:
                physical_to_logical.pop(phys_a, None)
            continue
        try:
            recovered_operands = tuple([physical_to_logical[q] for q in gate.qubits])
        except KeyError:
            raise AssertionError(
                f"routed gate {gate} acts on a physical qubit hosting no logical qubit"
            ) from None
        bucket = get_bucket((gate.name, recovered_operands, gate.params))
        if not bucket:
            raise AssertionError(
                f"routed gate {gate} (logical operands {recovered_operands}) does not match "
                "any executable logical gate"
            )
        for unblocked in execute(bucket.pop(0)):
            index_node(unblocked)
    if frontier.remaining:
        raise AssertionError(
            f"routed circuit left {frontier.remaining} logical gates unexecuted"
        )


def _verify_log(
    logical: QuantumCircuit,
    log: RoutingLog,
    architecture: Architecture,
    initial_mapping: Dict[int, int],
    coupled: Set[Tuple[int, int]],
) -> None:
    """Replay a router event log with its own mapping state (see :func:`verify_routing`)."""
    dag = log.dag
    size = len(dag.num_preds)
    if size != len(logical) or dag.num_qubits != logical.num_qubits:
        raise AssertionError(f"routing log does not describe circuit {logical.name!r}")
    logical_to_physical = dict(initial_mapping)
    physical_to_logical = {p: l for l, p in logical_to_physical.items()}
    qa = dag.qa
    qb = dag.qb
    successors = dag.successors
    # remaining[k] counts k's unexecuted predecessors; -1 marks a position
    # that holds no node or a node that already ran.
    remaining = list(dag.num_preds)
    executed = 0
    swaps = 0
    events = iter(log.events)
    for event in events:
        if event < 0:
            second = next(events, 0)
            if second >= 0:
                raise AssertionError("routing log ends inside a swap")
            phys_a, phys_b = ~event, ~second
            if (phys_a, phys_b) not in coupled:
                raise AssertionError(
                    f"logged swap ({phys_a}, {phys_b}) acts on uncoupled physical qubits "
                    f"on architecture {architecture.name!r}"
                )
            swap_mapping(logical_to_physical, physical_to_logical, phys_a, phys_b)
            swaps += 1
            continue
        if event >= size or remaining[event] < 0:
            raise AssertionError(f"logged gate {event} is not a pending node of the circuit")
        if remaining[event]:
            raise AssertionError(f"logged gate {event} runs before its predecessors")
        if qa[event] >= 0 and (
            logical_to_physical[qa[event]], logical_to_physical[qb[event]]
        ) not in coupled:
            raise AssertionError(
                f"logged gate {event} acts on uncoupled physical qubits "
                f"on architecture {architecture.name!r}"
            )
        remaining[event] = -1
        executed += 1
        for successor in successors[event]:
            remaining[successor] -= 1
    if executed != dag.num_nodes:
        raise AssertionError(f"routing log left {dag.num_nodes - executed} gates unexecuted")
    if swaps != log.num_swaps:
        raise AssertionError(f"routing log holds {swaps} swaps, not {log.num_swaps}")
