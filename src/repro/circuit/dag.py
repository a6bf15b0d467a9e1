"""Gate dependency DAG used by the SWAP router.

The mapper (``repro.mapping``) consumes two-qubit gates in dependency
order: a gate becomes executable only once all earlier gates acting on any
of its qubits have been executed.  :class:`CircuitDAG` captures exactly
that partial order, exposing a mutable *front layer* interface in the
style of the SABRE algorithm (Li et al., ASPLOS 2019 — reference [18] of
the paper).  :class:`PackedDAG` flattens it into the integer lists the
router's hot loop runs on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind, TWO_QUBIT_GATES


@dataclass
class DAGNode:
    """A node in the dependency DAG.

    Attributes:
        index: Position of the gate in the original circuit.
        gate: The gate itself.
        predecessors: Indices of nodes that must execute before this one.
        successors: Indices of nodes that depend on this one.
        two_qubit: Cached ``gate.is_two_qubit`` (the router checks it on
            every front-layer scan; the property re-derives the gate kind
            from its name each call).
    """

    index: int
    gate: Gate
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)
    two_qubit: bool = field(init=False)

    def __post_init__(self) -> None:
        # Direct frozenset membership instead of the kind property: this
        # runs once per gate per DAG build and is equivalent (measure and
        # barrier are not in TWO_QUBIT_GATES).
        self.two_qubit = self.gate.name in TWO_QUBIT_GATES


class CircuitDAG:
    """Dependency DAG over the gates of a circuit.

    Barriers order the gates around them but are not emitted as nodes to
    execute; measurements and single-qubit gates are kept so that the
    router can reproduce the *total* post-mapping gate count used as the
    performance metric in Section 5.1.
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self._circuit = circuit
        self._nodes: Dict[int, DAGNode] = {}
        self._build()
        # Presorted successor lists indexed by circuit position (gaps left
        # by removed barrier nodes simply hold empty entries).
        self._succ_sorted: List[List[int]] = [[] for _ in range(len(circuit.gates))]
        for index, node in self._nodes.items():
            self._succ_sorted[index] = sorted(node.successors)

    def _build(self) -> None:
        last_on_qubit: Dict[int, int] = {}
        for index, gate in enumerate(self._circuit.gates):
            if gate.name == "barrier":
                # A barrier acts as an ordering point on the qubits it spans
                # (or all qubits when it spans none explicitly).
                qubits = gate.qubits or tuple(range(self._circuit.num_qubits))
                node = DAGNode(index, gate)
                for qubit in qubits:
                    if qubit in last_on_qubit:
                        pred = last_on_qubit[qubit]
                        node.predecessors.add(pred)
                        self._nodes[pred].successors.add(index)
                    last_on_qubit[qubit] = index
                self._nodes[index] = node
                continue
            node = DAGNode(index, gate)
            for qubit in gate.qubits:
                if qubit in last_on_qubit:
                    pred = last_on_qubit[qubit]
                    node.predecessors.add(pred)
                    self._nodes[pred].successors.add(index)
                last_on_qubit[qubit] = index
            self._nodes[index] = node
        # Drop barrier nodes now that their ordering effect has been applied;
        # rewire their predecessors to their successors.
        for index in [i for i, n in self._nodes.items() if n.gate.kind is GateKind.BARRIER]:
            node = self._nodes.pop(index)
            for succ in node.successors:
                self._nodes[succ].predecessors.discard(index)
                self._nodes[succ].predecessors.update(node.predecessors)
            for pred in node.predecessors:
                self._nodes[pred].successors.discard(index)
                self._nodes[pred].successors.update(node.successors)

    # -- read-only structure -------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        return self._circuit

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def node(self, index: int) -> DAGNode:
        return self._nodes[index]

    def nodes(self) -> List[DAGNode]:
        """All nodes sorted by original circuit position."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def topological_order(self) -> List[DAGNode]:
        """Kahn's algorithm; ties broken by original circuit order."""
        in_degree = {i: len(n.predecessors) for i, n in self._nodes.items()}
        ready = sorted(i for i, d in in_degree.items() if d == 0)
        order: List[DAGNode] = []
        while ready:
            index = ready.pop(0)
            order.append(self._nodes[index])
            for succ in sorted(self._nodes[index].successors):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    # Keep `ready` sorted so the order is deterministic.
                    ready.append(succ)
                    ready.sort()
        if len(order) != len(self._nodes):
            raise RuntimeError("cycle detected in circuit DAG (should be impossible)")
        return order

    def front_layer(self) -> List[DAGNode]:
        """Nodes with no predecessors (initially executable gates)."""
        return [self._nodes[i] for i in sorted(self._nodes) if not self._nodes[i].predecessors]


class ExecutionFrontier:
    """Mutable traversal state over a :class:`CircuitDAG`.

    :func:`~repro.mapping.router.verify_routing` replays a routed circuit
    against it: it asks for the current *front layer* (gates whose
    dependencies are satisfied), executes some of them, and advances.
    """

    def __init__(self, dag: CircuitDAG) -> None:
        self._dag = dag
        # Flat, index-addressed predecessor counts (same layout as the DAG's
        # traversal tables; gaps from removed barriers stay at zero and are
        # never referenced because no live node lists them as a successor).
        self._remaining_preds: List[int] = [0] * len(dag._succ_sorted)
        self._front: Set[int] = set()
        for index, node in dag._nodes.items():
            count = len(node.predecessors)
            self._remaining_preds[index] = count
            if count == 0:
                self._front.add(index)
        self._executed: Set[int] = set()

    @property
    def done(self) -> bool:
        """True once every gate has been executed."""
        return len(self._executed) == self._dag.num_nodes

    @property
    def num_executed(self) -> int:
        return len(self._executed)

    @property
    def remaining(self) -> int:
        """Number of gates not yet executed."""
        return self._dag.num_nodes - len(self._executed)

    def front_nodes(self) -> List[DAGNode]:
        """Currently executable gates, in original circuit order."""
        return [self._dag.node(i) for i in sorted(self._front)]

    def execute(self, index: int) -> List[DAGNode]:
        """Mark gate ``index`` as executed and return newly unblocked nodes."""
        if index not in self._front:
            raise ValueError(f"gate {index} is not currently executable")
        self._front.discard(index)
        self._executed.add(index)
        unblocked: List[DAGNode] = []
        remaining = self._remaining_preds
        nodes = self._dag._nodes
        for succ in self._dag._succ_sorted[index]:
            remaining[succ] -= 1
            if not remaining[succ]:
                self._front.add(succ)
                unblocked.append(nodes[succ])
        return unblocked


@dataclass(frozen=True, eq=False)
class PackedDAG:
    """A :class:`CircuitDAG` flattened into integer lists for the router.

    Every list is indexed by circuit position; positions that hold no node
    (removed barriers) have ``num_preds == -1`` and no successors.  The
    pack keeps no :class:`Gate` or :class:`DAGNode` objects, so one pack
    per circuit and direction stays small enough to cache.

    Attributes:
        num_qubits: Register size of the packed circuit.
        qa, qb: Operand logicals of each two-qubit node (``-1`` otherwise).
        two_qubit: 1 for two-qubit nodes, 0 otherwise.
        successors: Presorted successor positions of each node.
        num_preds: Initial predecessor count of each node.
        front: Sorted positions of the nodes without predecessors.
        num_nodes: Number of nodes (barriers excluded).
        num_two_qubit: Number of two-qubit nodes.
    """

    num_qubits: int
    qa: List[int]
    qb: List[int]
    two_qubit: bytearray
    successors: List[List[int]]
    num_preds: List[int]
    front: List[int]
    num_nodes: int
    num_two_qubit: int

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit, reverse: bool = False) -> "PackedDAG":
        """Pack ``circuit`` (or, with ``reverse``, its gates in reverse order)."""
        if reverse:
            circuit = QuantumCircuit(circuit.num_qubits).extend(reversed(circuit.gates))
        dag = CircuitDAG(circuit)
        size = len(circuit.gates)
        qa = [-1] * size
        qb = [-1] * size
        two_qubit = bytearray(size)
        num_preds = [-1] * size
        for index, node in dag._nodes.items():
            num_preds[index] = len(node.predecessors)
            if node.two_qubit:
                qa[index], qb[index] = node.gate.qubits
                two_qubit[index] = 1
        return cls(
            num_qubits=circuit.num_qubits,
            qa=qa,
            qb=qb,
            two_qubit=two_qubit,
            successors=dag._succ_sorted,
            num_preds=num_preds,
            front=[index for index, count in enumerate(num_preds) if count == 0],
            num_nodes=dag.num_nodes,
            num_two_qubit=sum(two_qubit),
        )

    def lookahead(self, front: Sequence[int], depth: int) -> List[int]:
        """Up to ``depth`` two-qubit nodes beyond ``front``, in BFS order.

        The SABRE extended set: SWAP decisions consider gates that will
        become executable soon, not just the blocked ones.  The walk seeds
        from the successors of ``front`` (the sorted front layer) and
        visits each node once; every node it reaches is a strict
        descendant of the front, so none is executed or in the front.
        """
        result: List[int] = []
        if depth <= 0:
            return result
        successors = self.successors
        two_qubit = self.two_qubit
        visited = bytearray(len(successors))
        queue: deque = deque()
        for index in front:
            for successor in successors[index]:
                if not visited[successor]:
                    visited[successor] = 1
                    queue.append(successor)
        while queue:
            index = queue.popleft()
            if two_qubit[index]:
                result.append(index)
                if len(result) >= depth:
                    break
            for successor in successors[index]:
                if not visited[successor]:
                    visited[successor] = 1
                    queue.append(successor)
        return result
