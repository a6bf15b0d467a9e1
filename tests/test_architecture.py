"""Tests for the Architecture container and its physical-constraint validation."""

import pytest

from repro.hardware import Architecture, Lattice
from repro.hardware.bus import four_qubit_bus, two_qubit_bus
from repro.hardware.lattice import Square


@pytest.fixture
def grid_2x2():
    return Lattice.rectangle(2, 2)


class TestFromLayout:
    def test_two_qubit_buses_on_every_edge(self, grid_2x2):
        arch = Architecture.from_layout("plain", grid_2x2)
        assert len(arch.two_qubit_buses()) == 4
        assert arch.num_connections() == 4

    def test_four_qubit_bus_replaces_edge_buses(self, grid_2x2):
        arch = Architecture.from_layout("4q", grid_2x2, four_qubit_squares=[Square((0, 0))])
        assert len(arch.two_qubit_buses()) == 0
        assert len(arch.four_qubit_buses()) == 1
        # 4 side pairs + 2 diagonals.
        assert arch.num_connections() == 6

    def test_four_qubit_bus_on_empty_square_rejected(self):
        lattice = Lattice.from_coordinates({0: (0, 0), 1: (1, 0)})
        with pytest.raises(ValueError):
            Architecture.from_layout("bad", lattice, four_qubit_squares=[Square((0, 0))])

    def test_three_corner_square_gives_three_qubit_bus(self):
        lattice = Lattice.from_coordinates({0: (0, 0), 1: (1, 0), 2: (0, 1)})
        arch = Architecture.from_layout("corner", lattice, four_qubit_squares=[Square((0, 0))])
        assert arch.four_qubit_buses()[0].num_qubits == 3
        # Pairs: the two lattice edges plus the occupied diagonal.
        assert arch.num_connections() == 3

    def test_coupling_graph_nodes_and_edges(self, grid_2x2):
        arch = Architecture.from_layout("g", grid_2x2)
        assert set(arch.adjacency()) == {0, 1, 2, 3}
        assert arch.coupling_edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]


class TestDerivedQuantities:
    def test_neighbors_and_degree(self, grid_2x2):
        arch = Architecture.from_layout("n", grid_2x2)
        assert arch.neighbors(0) == [1, 2]
        assert arch.degree(0) == 2

    def test_collision_pairs_equal_coupling_edges(self, grid_2x2):
        arch = Architecture.from_layout("c", grid_2x2)
        assert arch.collision_pairs() == arch.coupling_edges()

    def test_coupling_edges_follow_bus_changes(self, grid_2x2):
        """The memoized edges miss when the bus list grows or is replaced."""
        arch = Architecture.from_layout("e", grid_2x2, four_qubit_squares=[Square((0, 0))])
        arch.buses = [two_qubit_bus(0, 1)]
        assert arch.coupling_edges() == [(0, 1)]
        arch.buses.append(two_qubit_bus(0, 2))
        assert arch.coupling_edges() == [(0, 1), (0, 2)]
        arch.buses = [two_qubit_bus(2, 3)]
        assert arch.coupling_edges() == [(2, 3)]

    def test_coupling_edges_hand_out_a_fresh_list(self, grid_2x2):
        arch = Architecture.from_layout("m", grid_2x2)
        edges = arch.coupling_edges()
        edges.append((7, 8))
        assert arch.coupling_edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_coupling_edge_memo_is_not_a_field(self, grid_2x2):
        from dataclasses import asdict

        arch = Architecture.from_layout("r", grid_2x2)
        fresh = Architecture.from_layout("r", grid_2x2)
        before = (repr(arch), list(asdict(arch)))
        arch.coupling_edges()
        assert arch == fresh
        assert (repr(arch), list(asdict(arch))) == before

    def test_collision_triples_of_square(self, grid_2x2):
        arch = Architecture.from_layout("t", grid_2x2)
        triples = arch.collision_triples()
        # Each of the 4 qubits has exactly 2 neighbours -> one triple each.
        assert len(triples) == 4
        for j, i, k in triples:
            assert i in arch.neighbors(j)
            assert k in arch.neighbors(j)
            assert i < k

    def test_summary_and_repr(self, grid_2x2):
        arch = Architecture.from_layout("s", grid_2x2)
        assert arch.summary()["num_qubits"] == 4
        assert "s" in repr(arch)

    def test_with_frequencies_copies(self, grid_2x2):
        base = Architecture.from_layout("f", grid_2x2)
        derived = base.with_frequencies({0: 5.0, 1: 5.1, 2: 5.2, 3: 5.3}, name="f2")
        assert not base.frequencies
        assert derived.frequencies[3] == 5.3
        assert derived.name == "f2"


class TestValidation:
    def test_valid_architecture(self, grid_2x2):
        arch = Architecture.from_layout("ok", grid_2x2, four_qubit_squares=[Square((0, 0))])
        assert arch.is_valid()

    def test_bus_with_unplaced_qubit(self, grid_2x2):
        arch = Architecture.from_layout("bad", grid_2x2)
        arch.buses.append(two_qubit_bus(0, 99))
        assert any("unplaced" in problem for problem in arch.validate())

    def test_two_qubit_bus_on_non_adjacent_nodes(self, grid_2x2):
        arch = Architecture.from_layout("bad", grid_2x2)
        arch.buses.append(two_qubit_bus(0, 3))
        assert any("non-adjacent" in problem for problem in arch.validate())

    def test_four_qubit_bus_qubits_must_match_square(self):
        lattice = Lattice.rectangle(2, 3)
        arch = Architecture.from_layout("bad", lattice)
        arch.buses.append(four_qubit_bus((0, 1, 2, 3), Square((0, 0))))
        assert any("occupied corners" in problem for problem in arch.validate())

    def test_adjacent_four_qubit_buses_prohibited(self):
        lattice = Lattice.rectangle(2, 3)
        arch = Architecture.from_layout(
            "bad", lattice, four_qubit_squares=[Square((0, 0))]
        )
        arch.buses.append(four_qubit_bus(tuple(lattice.square_qubits(Square((1, 0)))),
                                         Square((1, 0))))
        assert any("prohibited" in problem for problem in arch.validate())

    def test_missing_frequency_detected(self, grid_2x2):
        arch = Architecture.from_layout("bad", grid_2x2, frequencies={0: 5.0})
        assert any("without designed frequency" in problem for problem in arch.validate())
