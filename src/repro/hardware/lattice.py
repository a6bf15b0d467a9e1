"""2D lattice geometry.

Qubits live on integer lattice nodes ``(x, y)``.  Two nodes are adjacent
when their Manhattan distance is 1.  A *square* is the unit cell whose
lower-left corner is ``(x, y)``; squares are where 4-qubit buses may be
placed (paper Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

Coordinate = Tuple[int, int]


def manhattan_distance(a: Coordinate, b: Coordinate) -> int:
    """Manhattan (L1) distance between two lattice nodes."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def node_neighbors(node: Coordinate) -> List[Coordinate]:
    """The four lattice nodes adjacent to ``node`` (E, W, N, S)."""
    x, y = node
    return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


@dataclass(frozen=True)
class Square:
    """The unit lattice cell with lower-left corner ``origin``.

    The four corner nodes are (x, y), (x+1, y), (x, y+1), (x+1, y+1).
    """

    origin: Coordinate

    @property
    def corners(self) -> Tuple[Coordinate, Coordinate, Coordinate, Coordinate]:
        x, y = self.origin
        return ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))

    @property
    def diagonals(self) -> Tuple[Tuple[Coordinate, Coordinate], Tuple[Coordinate, Coordinate]]:
        """The two diagonal corner pairs of the square."""
        x, y = self.origin
        return (((x, y), (x + 1, y + 1)), ((x + 1, y), (x, y + 1)))

    @property
    def edges(self) -> Tuple[Tuple[Coordinate, Coordinate], ...]:
        """The four side edges of the square."""
        x, y = self.origin
        return (
            ((x, y), (x + 1, y)),
            ((x, y), (x, y + 1)),
            ((x + 1, y), (x + 1, y + 1)),
            ((x, y + 1), (x + 1, y + 1)),
        )

    def neighbors(self) -> List["Square"]:
        """The four squares sharing an edge with this one (prohibition constraint)."""
        x, y = self.origin
        return [Square((x + 1, y)), Square((x - 1, y)), Square((x, y + 1)), Square((x, y - 1))]

    def is_adjacent_to(self, other: "Square") -> bool:
        return manhattan_distance(self.origin, other.origin) == 1


class Lattice:
    """A set of occupied nodes on the infinite 2D integer lattice.

    The design flow starts from an unbounded empty lattice (paper Figure 6
    (a)) and places qubits one by one, so this class does not impose any
    fixed width/height; it simply tracks which nodes are occupied and by
    which physical qubit.
    """

    def __init__(self) -> None:
        self._qubit_of_node: Dict[Coordinate, int] = {}
        self._node_of_qubit: Dict[int, Coordinate] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_coordinates(cls, coordinates: Dict[int, Coordinate]) -> "Lattice":
        """Build a lattice from a qubit -> node mapping."""
        lattice = cls()
        for qubit, node in coordinates.items():
            lattice.place(qubit, node)
        return lattice

    @classmethod
    def rectangle(cls, rows: int, cols: int) -> "Lattice":
        """A fully occupied ``rows x cols`` grid with row-major qubit ids.

        Qubit ``q`` sits at ``(x, y) = (q % cols, q // cols)``; this matches
        the regular layouts of IBM's 2x8 and 4x5 chips (paper Figure 9).
        """
        lattice = cls()
        for qubit in range(rows * cols):
            lattice.place(qubit, (qubit % cols, qubit // cols))
        return lattice

    def place(self, qubit: int, node: Coordinate) -> None:
        """Place ``qubit`` on ``node``; both must be unused."""
        node = (int(node[0]), int(node[1]))
        if node in self._qubit_of_node:
            raise ValueError(f"node {node} is already occupied by qubit {self._qubit_of_node[node]}")
        if qubit in self._node_of_qubit:
            raise ValueError(f"qubit {qubit} is already placed at {self._node_of_qubit[qubit]}")
        self._qubit_of_node[node] = qubit
        self._node_of_qubit[qubit] = node

    # -- queries ---------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self._node_of_qubit)

    @property
    def qubits(self) -> List[int]:
        return sorted(self._node_of_qubit)

    def coordinates(self) -> Dict[int, Coordinate]:
        """Copy of the qubit -> node mapping."""
        return dict(self._node_of_qubit)

    def node_of(self, qubit: int) -> Coordinate:
        return self._node_of_qubit[qubit]

    def qubit_at(self, node: Coordinate) -> Optional[int]:
        """The qubit occupying ``node``, or None when the node is empty."""
        return self._qubit_of_node.get(node)

    def is_occupied(self, node: Coordinate) -> bool:
        return node in self._qubit_of_node

    def neighbors_of_qubit(self, qubit: int) -> List[int]:
        """Physical qubits on lattice-adjacent nodes."""
        node = self._node_of_qubit[qubit]
        found = []
        for neighbor in node_neighbors(node):
            occupant = self._qubit_of_node.get(neighbor)
            if occupant is not None:
                found.append(occupant)
        return sorted(found)

    def adjacent_pairs(self) -> List[Tuple[int, int]]:
        """All qubit pairs sitting on lattice-adjacent nodes (candidate 2-qubit buses)."""
        pairs: Set[Tuple[int, int]] = set()
        for qubit, node in self._node_of_qubit.items():
            for neighbor in node_neighbors(node):
                occupant = self._qubit_of_node.get(neighbor)
                if occupant is not None:
                    pairs.add((min(qubit, occupant), max(qubit, occupant)))
        return sorted(pairs)

    def empty_frontier(self) -> List[Coordinate]:
        """Empty nodes adjacent to at least one occupied node (candidate placements)."""
        frontier: Set[Coordinate] = set()
        for node in self._qubit_of_node:
            for neighbor in node_neighbors(node):
                if neighbor not in self._qubit_of_node:
                    frontier.add(neighbor)
        return sorted(frontier)

    def squares(self, min_occupied: int = 3) -> List[Square]:
        """Squares whose corners contain at least ``min_occupied`` placed qubits.

        These are the candidate locations for 4-qubit buses.  A square with
        three occupied corners is the "corner case" of paper Figure 7 (b)
        where the bus degenerates to a 3-qubit bus.
        """
        candidates: Set[Coordinate] = set()
        for x, y in self._qubit_of_node:
            for origin in ((x, y), (x - 1, y), (x, y - 1), (x - 1, y - 1)):
                candidates.add(origin)
        result = []
        for origin in sorted(candidates):
            square = Square(origin)
            occupied = sum(1 for corner in square.corners if corner in self._qubit_of_node)
            if occupied >= min_occupied:
                result.append(square)
        return result

    def square_qubits(self, square: Square) -> List[int]:
        """The qubits occupying the corners of ``square`` (sorted)."""
        return sorted(
            self._qubit_of_node[corner]
            for corner in square.corners
            if corner in self._qubit_of_node
        )

    def bounding_box(self) -> Tuple[Coordinate, Coordinate]:
        """Lower-left and upper-right corners of the occupied region."""
        if not self._qubit_of_node:
            raise ValueError("empty lattice has no bounding box")
        xs = [node[0] for node in self._qubit_of_node]
        ys = [node[1] for node in self._qubit_of_node]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def normalized(self) -> "Lattice":
        """A copy translated so the bounding box starts at (0, 0)."""
        (min_x, min_y), _ = self.bounding_box()
        return Lattice.from_coordinates(
            {q: (x - min_x, y - min_y) for q, (x, y) in self._node_of_qubit.items()}
        )

    def geometric_center(self) -> Tuple[float, float]:
        """Mean position of the occupied nodes (used by frequency allocation)."""
        if not self._node_of_qubit:
            raise ValueError("empty lattice has no center")
        xs = [node[0] for node in self._node_of_qubit.values()]
        ys = [node[1] for node in self._node_of_qubit.values()]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    def central_qubit(self) -> int:
        """The placed qubit closest to the geometric center (ties broken by id)."""
        cx, cy = self.geometric_center()
        return min(
            self._node_of_qubit,
            key=lambda q: (
                abs(self._node_of_qubit[q][0] - cx) + abs(self._node_of_qubit[q][1] - cy),
                q,
            ),
        )
