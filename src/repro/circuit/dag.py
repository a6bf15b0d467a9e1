"""The gate dependency pack the SWAP router runs on.

The mapper (``repro.mapping``) executes gates in dependency order, and
that order is read off the gate list alone: gate ``j`` precedes gate
``i`` when ``j`` is the last non-barrier gate before ``i`` on a qubit
they share.  A barrier is no gate to execute; it orders the gates around
it on the qubits it spans (every qubit when it names none) by passing
the predecessors of its qubits through to the gates after it.  Single-
qubit gates and measurements stay nodes, so the router reproduces the
*total* post-mapping gate count used as the performance metric in
Section 5.1.

:meth:`PackedDAG.from_circuit` builds the order in one pass over the gate
list, keeping a last-writer tuple per qubit, and stores it as the flat
integer lists the router's hot loop (SABRE, Li et al., ASPLOS 2019 —
reference [18] of the paper) runs on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import TWO_QUBIT_GATES


@dataclass(frozen=True, eq=False)
class PackedDAG:
    """The dependency order of a circuit as integer lists for the router.

    Every list is indexed by circuit position; positions that hold no node
    (barriers) have ``num_preds == -1`` and no successors.  The pack keeps
    no :class:`~repro.circuit.gates.Gate` objects, so one pack per circuit
    and direction stays small enough to cache.

    Attributes:
        num_qubits: Register size of the packed circuit.
        qa, qb: Operand logicals of each two-qubit node (``-1`` otherwise).
        two_qubit: 1 for two-qubit nodes, 0 otherwise.
        successors: Ascending successor positions of each node.
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
        """Pack ``circuit``, or with ``reverse`` its gates walked last to first.

        Position ``p`` of a reverse pack is gate ``len(circuit) - 1 - p``.
        ``writers[q]`` holds the nodes the next gate on qubit ``q``
        depends on: the last gate on ``q``, or what a barrier passed on.
        """
        gates = circuit.gates
        size = len(gates)
        num_qubits = circuit.num_qubits
        qa = [-1] * size
        qb = [-1] * size
        two_qubit = bytearray(size)
        num_preds = [-1] * size
        successors: List[List[int]] = [[] for _ in range(size)]
        writers: List[Tuple[int, ...]] = [()] * num_qubits
        num_nodes = size
        for index, gate in enumerate(reversed(gates) if reverse else gates):
            qubits = gate.qubits
            if gate.name == "barrier":
                span = qubits or range(num_qubits)
                merged = tuple(dict.fromkeys(node for qubit in span for node in writers[qubit]))
                for qubit in span:
                    writers[qubit] = merged
                num_nodes -= 1
                continue
            preds = writers[qubits[0]]
            for qubit in qubits[1:]:
                more = writers[qubit]
                if more != preds:
                    preds += tuple(node for node in more if node not in preds)
            for node in preds:
                successors[node].append(index)
            num_preds[index] = len(preds)
            if gate.name in TWO_QUBIT_GATES:
                qa[index], qb[index] = qubits
                two_qubit[index] = 1
            mine = (index,)
            for qubit in qubits:
                writers[qubit] = mine
        return cls(
            num_qubits=num_qubits,
            qa=qa,
            qb=qb,
            two_qubit=two_qubit,
            successors=successors,
            num_preds=num_preds,
            front=[index for index, count in enumerate(num_preds) if count == 0],
            num_nodes=num_nodes,
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
