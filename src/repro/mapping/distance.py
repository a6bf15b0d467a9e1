"""All-pairs shortest-path distances on the chip coupling graph.

The SWAP router scores candidate swaps by how much they reduce the
coupling-graph distance between the physical qubits hosting the logical
operands of pending two-qubit gates, so it needs fast distance lookups.
Chips in this work have at most a few dozen qubits, so a dense BFS-based
distance matrix is both simple and fast.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import numpy as np

from repro.hardware.architecture import Architecture


class DistanceMatrix:
    """Dense shortest-path distance lookup over an architecture's coupling graph."""

    def __init__(self, architecture: Architecture) -> None:
        self._qubits: List[int] = architecture.qubits
        self._index_of: Dict[int, int] = {q: i for i, q in enumerate(self._qubits)}
        n = len(self._qubits)
        adjacency = architecture.adjacency()
        matrix = np.full((n, n), np.inf)
        for source in self._qubits:
            src = self._index_of[source]
            matrix[src, src] = 0
            queue = deque([source])
            seen = {source}
            while queue:
                current = queue.popleft()
                for neighbor in adjacency[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        matrix[src, self._index_of[neighbor]] = (
                            matrix[src, self._index_of[current]] + 1
                        )
                        queue.append(neighbor)
        matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def qubits(self) -> List[int]:
        return list(self._qubits)

    @property
    def array(self) -> np.ndarray:
        """The distance matrix itself (read-only; rows/cols ordered by ``qubits``).

        The SWAP router scores thousands of candidate swaps per routed
        circuit, so it indexes this array directly instead of going through
        :meth:`distance`.
        """
        return self._matrix

    def index_of(self, physical: int) -> int:
        """Row/column index of a physical qubit in :attr:`array`."""
        return self._index_of[physical]

    def distance(self, physical_a: int, physical_b: int) -> float:
        """Shortest-path distance between two physical qubits (inf when disconnected)."""
        return float(self._matrix[self._index_of[physical_a], self._index_of[physical_b]])

    def is_connected(self) -> bool:
        """True when every pair of physical qubits is joined by a coupling path."""
        return bool(np.isfinite(self._matrix).all())

    def as_array(self) -> np.ndarray:
        """Copy of the underlying distance matrix (rows/cols ordered by ``qubits``)."""
        return self._matrix.copy()

    def diameter(self) -> float:
        """Longest shortest path in the coupling graph."""
        finite = self._matrix[np.isfinite(self._matrix)]
        return float(finite.max()) if finite.size else 0.0
