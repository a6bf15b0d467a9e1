"""The :class:`Architecture` container: layout + buses + frequencies.

An architecture is the artifact produced by the design flow and consumed
by both the yield simulator (which needs the physical coupling graph and
the designed frequencies) and the qubit mapper (which needs the coupling
graph and the qubit coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.hardware.bus import Bus, BusType, four_qubit_bus, two_qubit_bus
from repro.hardware.lattice import Coordinate, Lattice, Square, manhattan_distance


@dataclass
class Architecture:
    """A complete superconducting quantum processor architecture design.

    Attributes:
        name: Human-readable identifier used in reports.
        lattice: Qubit placement on the 2D lattice.
        buses: The resonator buses connecting qubits.
        frequencies: Designed (pre-fabrication) frequency of each qubit in
            GHz.  May be empty for partially designed architectures (before
            the frequency-allocation subroutine has run).
        logical_to_physical: Optional pseudo-mapping from logical program
            qubits to physical qubits recorded by the layout subroutine; the
            mapper uses it as its initial mapping.
    """

    name: str
    lattice: Lattice
    buses: List[Bus] = field(default_factory=list)
    frequencies: Dict[int, float] = field(default_factory=dict)
    logical_to_physical: Dict[int, int] = field(default_factory=dict)

    # -- derived structure ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.lattice.num_qubits

    @property
    def qubits(self) -> List[int]:
        return self.lattice.qubits

    def coordinates(self) -> Dict[int, Coordinate]:
        return self.lattice.coordinates()

    def coupling_edges(self) -> List[Tuple[int, int]]:
        """All physical qubit pairs that can host a two-qubit gate.

        Every pair coupled by any bus appears exactly once, as ``(a, b)``
        with ``a < b``.  The sorted edges are memoized on the tuple of
        (frozen) buses, outside the dataclass fields, so a changed or
        replaced bus list misses; every call returns a new list.
        """
        key = tuple(self.buses)
        cached = getattr(self, "_coupling_edges", None)
        if cached is None or cached[0] != key:
            edges: Set[Tuple[int, int]] = set()
            for bus in key:
                for a, b in bus.coupled_pairs:
                    edges.add((min(a, b), max(a, b)))
            cached = (key, sorted(edges))
            self._coupling_edges = cached
        return list(cached[1])

    def coupling_graph(self) -> nx.Graph:
        """The chip coupling graph (vertices = physical qubits, edges = couplings)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.qubits)
        graph.add_edges_from(self.coupling_edges())
        return graph

    def num_connections(self) -> int:
        """Number of distinct coupled qubit pairs (hardware resource measure)."""
        return len(self.coupling_edges())

    def four_qubit_buses(self) -> List[Bus]:
        return [bus for bus in self.buses if bus.bus_type is BusType.FOUR_QUBIT]

    def two_qubit_buses(self) -> List[Bus]:
        return [bus for bus in self.buses if bus.bus_type is BusType.TWO_QUBIT]

    def adjacency(self) -> Dict[int, List[int]]:
        """Every qubit's coupled qubits, ascending, from one edge pass.

        Keys follow :attr:`qubits`; a qubit that only a bus names (not
        placed on the lattice) gets an entry after them.
        """
        adjacency: Dict[int, List[int]] = {q: [] for q in self.qubits}
        # coupling_edges() is sorted, so each list fills in ascending order:
        # a qubit's smaller neighbours come from its edges (n, q), which
        # sort before its edges (q, n).
        for a, b in self.coupling_edges():
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        return adjacency

    def degree(self, qubit: int) -> int:
        """Number of physical qubits directly coupled to ``qubit``."""
        return len(self.neighbors(qubit))

    def neighbors(self, qubit: int) -> List[int]:
        """Physical qubits directly coupled to ``qubit``, ascending."""
        return self.adjacency().get(qubit, [])

    # -- validation -----------------------------------------------------------

    def validate(self) -> List[str]:
        """Check physical constraints; return human-readable violations.

        Checks performed:

        * every bus qubit is a placed qubit;
        * 2-qubit buses connect lattice-adjacent qubits;
        * 4-qubit buses sit on a lattice square whose occupied corners are
          exactly the bus qubits;
        * no two 4-qubit buses occupy adjacent squares (the prohibited
          condition of paper Figure 7 (a));
        * frequencies, when present, cover every qubit.
        """
        problems: List[str] = []
        placed = set(self.qubits)
        coords = self.coordinates()
        for bus in self.buses:
            missing = [q for q in bus.qubits if q not in placed]
            if missing:
                problems.append(f"bus {bus.qubits} references unplaced qubits {missing}")
                continue
            if bus.bus_type is BusType.TWO_QUBIT:
                a, b = bus.qubits
                if manhattan_distance(coords[a], coords[b]) != 1:
                    problems.append(
                        f"2-qubit bus {bus.qubits} connects non-adjacent nodes "
                        f"{coords[a]} and {coords[b]}"
                    )
            else:
                expected = set(self.lattice.square_qubits(bus.square))
                if expected != set(bus.qubits):
                    problems.append(
                        f"4-qubit bus on square {bus.square.origin} connects {sorted(bus.qubits)} "
                        f"but the occupied corners are {sorted(expected)}"
                    )
        squares = [bus.square for bus in self.four_qubit_buses()]
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                if squares[i].is_adjacent_to(squares[j]):
                    problems.append(
                        f"4-qubit buses on adjacent squares {squares[i].origin} and "
                        f"{squares[j].origin} (prohibited condition)"
                    )
        if self.frequencies:
            missing_freq = [q for q in self.qubits if q not in self.frequencies]
            if missing_freq:
                problems.append(f"qubits without designed frequency: {missing_freq}")
        return problems

    def is_valid(self) -> bool:
        return not self.validate()

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_layout(
        cls,
        name: str,
        lattice: Lattice,
        four_qubit_squares: Optional[Iterable[Square]] = None,
        frequencies: Optional[Dict[int, float]] = None,
        logical_to_physical: Optional[Dict[int, int]] = None,
    ) -> "Architecture":
        """Build an architecture from a qubit layout and a set of 4-qubit squares.

        2-qubit buses are generated on every lattice edge between occupied
        nodes, except edges that belong to a selected 4-qubit square (the
        4-qubit bus replaces them, paper Section 4.2).
        """
        selected = list(four_qubit_squares or [])
        replaced_pairs: Set[FrozenSet[int]] = set()
        buses: List[Bus] = []
        for square in selected:
            qubits = lattice.square_qubits(square)
            if len(qubits) < 3:
                raise ValueError(
                    f"square {square.origin} has only {len(qubits)} occupied corners; "
                    "a 4-qubit bus needs at least 3"
                )
            buses.append(four_qubit_bus(tuple(qubits), square))
            for node_a, node_b in square.edges:
                qubit_a = lattice.qubit_at(node_a)
                qubit_b = lattice.qubit_at(node_b)
                if qubit_a is not None and qubit_b is not None:
                    replaced_pairs.add(frozenset((qubit_a, qubit_b)))
        for qubit_a, qubit_b in lattice.adjacent_pairs():
            if frozenset((qubit_a, qubit_b)) not in replaced_pairs:
                buses.append(two_qubit_bus(qubit_a, qubit_b))
        return cls(
            name=name,
            lattice=lattice,
            buses=buses,
            frequencies=dict(frequencies or {}),
            logical_to_physical=dict(logical_to_physical or {}),
        )

    def with_frequencies(self, frequencies: Dict[int, float], name: Optional[str] = None
                         ) -> "Architecture":
        """A copy of this architecture with a different frequency plan."""
        return Architecture(
            name=name or self.name,
            lattice=self.lattice,
            buses=list(self.buses),
            frequencies=dict(frequencies),
            logical_to_physical=dict(self.logical_to_physical),
        )

    # -- collision bookkeeping used by the yield simulator -----------------------

    def collision_pairs(self) -> List[Tuple[int, int]]:
        """Connected qubit pairs checked against collision conditions 1-4."""
        return self.coupling_edges()

    def collision_triples(self) -> List[Tuple[int, int, int]]:
        """Triples ``(j, i, k)`` where ``i`` and ``k`` both couple to ``j``.

        These are the geometries checked against collision conditions 5-7
        (paper Figure 3, right).
        """
        adjacency = self.adjacency()
        triples: List[Tuple[int, int, int]] = []
        for j in self.qubits:
            neighbors = adjacency[j]
            for idx_a in range(len(neighbors)):
                for idx_b in range(idx_a + 1, len(neighbors)):
                    triples.append((j, neighbors[idx_a], neighbors[idx_b]))
        return triples

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "num_connections": self.num_connections(),
            "num_two_qubit_buses": len(self.two_qubit_buses()),
            "num_four_qubit_buses": len(self.four_qubit_buses()),
            "has_frequencies": bool(self.frequencies),
        }

    def __repr__(self) -> str:
        return (
            f"Architecture(name={self.name!r}, qubits={self.num_qubits}, "
            f"connections={self.num_connections()}, "
            f"four_qubit_buses={len(self.four_qubit_buses())})"
        )
