"""Tests for the SABRE-style SWAP router."""

from dataclasses import replace

import pytest

from repro.circuit import QuantumCircuit, barrier, cx, h, measure
from repro.circuit.dag import PackedDAG
from repro.hardware import Architecture, Lattice, ibm_16q_2x8
from repro.mapping import SabreRouter, SabreParameters, route_circuit
from repro.mapping.router import verify_routing
from repro.profiling import profile_circuit


def chain_architecture(n):
    return Architecture.from_layout("chain", Lattice.rectangle(1, n))


class TestRouterCore:
    def test_already_executable_circuit_needs_no_swaps(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1), cx(1, 2), h(0), measure(2)])
        arch = chain_architecture(3)
        router = SabreRouter(arch)
        routed, num_swaps, _final = router.route(circuit, {0: 0, 1: 1, 2: 2})
        assert num_swaps == 0
        assert len(routed) == len(circuit)

    def test_distant_gate_requires_swaps(self):
        circuit = QuantumCircuit(4).extend([cx(0, 3)])
        arch = chain_architecture(4)
        router = SabreRouter(arch)
        routed, num_swaps, _final = router.route(circuit, {0: 0, 1: 1, 2: 2, 3: 3})
        assert num_swaps >= 2
        assert sum(1 for gate in routed if gate.name == "swap") == num_swaps

    def test_single_qubit_gates_always_executable(self):
        circuit = QuantumCircuit(2).extend([h(0), h(1), measure(0)])
        arch = chain_architecture(2)
        routed, num_swaps, _final = SabreRouter(arch).route(circuit, {0: 0, 1: 1})
        assert num_swaps == 0
        assert len(routed) == 3

    def test_final_mapping_tracks_swaps(self):
        circuit = QuantumCircuit(3).extend([cx(0, 2)])
        arch = chain_architecture(3)
        _routed, num_swaps, final = SabreRouter(arch).route(circuit, {0: 0, 1: 1, 2: 2})
        assert num_swaps >= 1
        assert sorted(final.values()) == sorted({0, 1, 2} & set(final.values()))
        assert len(set(final.values())) == 3

    def test_mapping_with_extra_logical_keys_accepted(self):
        """Extra logical keys beyond the register pin physical qubits but
        must not crash routing (the pre-refactor router accepted them)."""
        circuit = QuantumCircuit(2).extend([cx(0, 1), cx(1, 0)])
        arch = chain_architecture(5)
        mapping = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
        routed, num_swaps, final = SabreRouter(arch).route(circuit, mapping)
        verify_routing(circuit, routed, arch, mapping)
        assert num_swaps >= 1
        assert set(final) == set(mapping)

    def test_invalid_initial_mapping_rejected(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1)])
        arch = chain_architecture(3)
        router = SabreRouter(arch)
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 1})
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 1, 2: 99})
        with pytest.raises(ValueError):
            # Extra logical key colliding with a circuit logical's physical
            # qubit: corrupts the inverse mapping (would livelock routing).
            router.route(circuit, {0: 0, 1: 1, 2: 2, 9: 0})
        with pytest.raises(ValueError):
            # Extra logical key on an unknown physical qubit.
            router.route(circuit, {0: 0, 1: 1, 2: 2, 9: 77})

    def test_all_routed_two_qubit_gates_on_coupled_pairs(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        coupled = set()
        for a, b in arch.coupling_edges():
            coupled.add((a, b))
            coupled.add((b, a))
        for gate in result.routed_circuit:
            if gate.is_two_qubit:
                assert tuple(gate.qubits) in coupled

    def test_router_parameters_accepted(self, line_circuit):
        params = SabreParameters(extended_set_size=5, extended_set_weight=0.3)
        result = route_circuit(line_circuit, ibm_16q_2x8(), parameters=params)
        assert result.total_gates >= len(line_circuit)


class TestRoutingVerification:
    def test_verify_accepts_correct_routing(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        verify_routing(line_circuit, result.routed_circuit, arch, result.initial_mapping)

    def test_verify_rejects_dropped_gate(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        truncated = QuantumCircuit(result.routed_circuit.num_qubits)
        truncated.extend(result.routed_circuit.gates[:-1])
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, truncated, arch, result.initial_mapping)

    def test_logical_swap_gates_route_and_verify(self):
        """Program swap gates are routed like any two-qubit gate and must
        not be confused with router-inserted swaps during verification."""
        from repro.circuit.gates import swap

        circuit = QuantumCircuit(4, name="with_logical_swaps")
        circuit.extend([swap(0, 1), cx(1, 3), swap(0, 3), cx(2, 0), measure(3)])
        arch = chain_architecture(4)
        result = route_circuit(circuit, arch)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        assert result.original_gates == len(circuit)

    def test_verify_rejects_uncoupled_gate(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        corrupted = QuantumCircuit(result.routed_circuit.num_qubits)
        corrupted.extend(result.routed_circuit.gates)
        corrupted.append(cx(0, 15))
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, corrupted, arch, result.initial_mapping)


class TestRoutingLogVerification:
    """verify_routing replays the router's event log; tampering must fail it."""

    @pytest.fixture
    def routed_log(self):
        arch = chain_architecture(4)
        circuit = QuantumCircuit(4, name="tamper").extend([cx(0, 3), h(0), cx(0, 1), cx(1, 2)])
        log = SabreRouter(arch).route_packed(
            PackedDAG.from_circuit(circuit), None, {q: q for q in range(4)}
        )
        # swap(0,1) swap(1,2) node0 node1 swap(0,1) node2 node3
        assert log.events == [~0, ~1, ~1, ~2, 0, 1, ~0, ~1, 2, 3]
        assert log.num_swaps == 3
        verify_routing(circuit, log, arch, log.initial_mapping)
        return circuit, arch, log

    @staticmethod
    def assert_rejected(routed_log, **changes):
        circuit, arch, log = routed_log
        with pytest.raises(AssertionError):
            verify_routing(circuit, replace(log, **changes), arch, log.initial_mapping)

    def test_dropped_swap_rejected(self, routed_log):
        events = routed_log[2].events
        self.assert_rejected(routed_log, events=events[2:])
        # Also with the swap count adjusted: the gate replay itself fails.
        self.assert_rejected(routed_log, events=events[2:], num_swaps=2)

    def test_swap_on_uncoupled_pair_rejected(self, routed_log):
        events = routed_log[2].events
        self.assert_rejected(routed_log, events=events + [~0, ~3], num_swaps=4)

    def test_dependent_gates_out_of_order_rejected(self, routed_log):
        events = routed_log[2].events
        self.assert_rejected(routed_log, events=events[:-2] + [3, 2])

    def test_gate_run_twice_rejected(self, routed_log):
        events = routed_log[2].events
        self.assert_rejected(routed_log, events=events + [3])

    def test_truncated_log_rejected(self, routed_log):
        events = routed_log[2].events
        self.assert_rejected(routed_log, events=events[:-1])
        # Cut inside a swap's endpoint pair.
        self.assert_rejected(routed_log, events=events[:7], num_swaps=3)

    def test_swap_count_disagreeing_with_log_rejected(self, routed_log):
        self.assert_rejected(routed_log, num_swaps=routed_log[2].num_swaps + 1)
        self.assert_rejected(routed_log, num_swaps=routed_log[2].num_swaps - 1)

    def test_log_of_another_circuit_rejected(self, routed_log):
        _circuit, arch, log = routed_log
        other = QuantumCircuit(4, name="other").extend([cx(0, 3), h(0), cx(0, 1)])
        with pytest.raises(AssertionError):
            verify_routing(other, log, arch, log.initial_mapping)

    def test_routing_on_a_pack_missing_an_edge_is_rejected(self, routing_backend):
        """Without the edge ``cx(0, 1) -> h(1)`` the router runs ``h(1)``
        first; the replay reads the circuit, not the pack, and rejects it."""
        arch = chain_architecture(3)
        circuit = QuantumCircuit(3, name="mutant").extend([h(0), cx(0, 1), h(1)])
        packed = PackedDAG.from_circuit(circuit)
        assert packed.successors == [[1], [2], []]
        wrong = replace(packed, successors=[[1], [], []], num_preds=[0, 1, 0], front=[0, 2])
        log = SabreRouter(arch).route_packed(wrong, None, {q: q for q in range(3)})
        assert log.events == [0, 2, 1]
        with pytest.raises(AssertionError):
            verify_routing(circuit, log, arch, log.initial_mapping)

    @pytest.mark.parametrize("fence", [(0, 1), ()], ids=["explicit", "all-qubits"])
    def test_gate_run_past_a_barrier_early_rejected(self, fence):
        arch = chain_architecture(3)
        circuit = QuantumCircuit(3, name="fenced").extend(
            [h(0), barrier(*fence), h(1), h(2)]
        )
        log = SabreRouter(arch).route_packed(
            PackedDAG.from_circuit(circuit), None, {q: q for q in range(3)}
        )
        # The barrier never runs.
        assert sorted(log.events) == [0, 2, 3]
        verify_routing(circuit, log, arch, log.initial_mapping)
        self.assert_rejected((circuit, arch, log), events=[2, 0, 3])
        self.assert_rejected((circuit, arch, log), events=[0, 1, 2, 3])
        # Only a barrier over every qubit fences h(2).
        run_early = [3, 0, 2]
        if fence:
            verify_routing(circuit, replace(log, events=run_early), arch, log.initial_mapping)
        else:
            self.assert_rejected((circuit, arch, log), events=run_early)

    def test_routed_circuit_across_a_barrier_is_checked(self):
        arch = chain_architecture(3)
        circuit = QuantumCircuit(3, name="fenced").extend(
            [cx(0, 2), barrier(), h(1), cx(1, 2)]
        )
        result = route_circuit(circuit, arch)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        gates = list(result.routed_circuit.gates)
        early = next(i for i, gate in enumerate(gates) if gate.name == "h")
        moved = QuantumCircuit(result.routed_circuit.num_qubits).extend(
            [gates[early]] + gates[:early] + gates[early + 1:]
        )
        with pytest.raises(AssertionError):
            verify_routing(circuit, moved, arch, result.initial_mapping)

    def test_materialized_log_matches_route(self, routed_log):
        circuit, arch, log = routed_log
        router = SabreRouter(arch)
        routed, num_swaps, final = router.route(circuit, dict(log.initial_mapping))
        assert list(router.materialize(circuit, log, arch.name).gates) == list(routed.gates)
        assert num_swaps == log.num_swaps and final == log.final_mapping


class TestChooseSwapRules:
    """Decision rules of ``_choose_swap`` on hand-picked gate sets.

    The front and extended lists here need not be reachable states (the
    adjacent front gates would have executed); the scorer must apply its
    rules to any gate sets.  Chain 0-1-2-3-4-5, logical q on physical q.
    """

    @staticmethod
    def choose(front_pairs, extended_pairs):
        from repro.mapping.sabre import _partners

        arch = chain_architecture(6)
        router = SabreRouter(arch)
        pairs = list(front_pairs) + list(extended_pairs)
        qa = [a for a, _ in pairs]
        qb = [b for _, b in pairs]
        front = list(range(len(front_pairs)))
        extended = list(range(len(front_pairs), len(pairs)))
        pos = list(range(6))

        def base(nodes):
            return float(sum(abs(qa[n] - qb[n]) for n in nodes))

        chosen = router._choose_swap(
            pos, list(range(6)), _partners(front, qa, qb), _partners(extended, qa, qb),
            len(front), len(extended), base(front), base(extended), [1.0] * 6,
        )
        return chosen[:2], chosen[2:]

    def test_front_improving_swap_beats_lower_scoring_one(self):
        # (0, 1) scores 2.0 without shortening the front; (3, 4) also
        # scores 2.0 and shortens gate (2, 4), so it wins (and so would
        # any front-improving swap with a higher score).
        assert self.choose([(0, 1), (2, 4)], [(0, 2)]) == ((3, 4), (-1.0, 0.0))

    def test_tie_without_improving_swap_goes_to_lowest_edge(self):
        # Both front gates are adjacent, so no swap shortens the front:
        # swapping either gate's own pair keeps every distance, scoring 1.0.
        assert self.choose([(0, 1), (2, 3)], []) == ((0, 1), (0.0, 0.0))


class TestEscapeHatches:
    def test_force_route_path_still_verifies(self):
        """stall_threshold=0 funnels every blocked gate through _force_route."""
        circuit = QuantumCircuit(6, name="forced")
        for _ in range(3):
            for qubit in range(5):
                circuit.append(cx(qubit, qubit + 1))
            circuit.append(cx(0, 5))
        arch = chain_architecture(6)
        params = SabreParameters(stall_threshold=0)
        result = route_circuit(circuit, arch, parameters=params)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        assert result.num_swaps >= 1

    def test_force_route_matches_distance_lower_bound(self):
        """The greedy walk needs exactly distance-1 swaps on a bare chain."""
        circuit = QuantumCircuit(5).extend([cx(0, 4)])
        arch = chain_architecture(5)
        router = SabreRouter(arch, SabreParameters(stall_threshold=0))
        routed, num_swaps, _final = router.route(circuit, {q: q for q in range(5)})
        assert num_swaps == 3
        assert sum(1 for gate in routed if gate.name == "swap") == 3

    def test_swap_budget_exhaustion_raises(self):
        circuit = QuantumCircuit(4).extend([cx(0, 3)])
        arch = chain_architecture(4)
        router = SabreRouter(arch, SabreParameters(max_swaps_per_gate=0))
        with pytest.raises(RuntimeError, match="swap budget"):
            router.route(circuit, {q: q for q in range(4)})

    def test_stall_threshold_validation(self):
        with pytest.raises(ValueError):
            SabreParameters(stall_threshold=-1)


class TestBidirectionalAndRestarts:
    def test_invalid_pass_counts_rejected(self):
        with pytest.raises(ValueError):
            SabreParameters(passes=0)
        with pytest.raises(ValueError):
            SabreParameters(passes=2)
        with pytest.raises(ValueError):
            SabreParameters(restarts=0)

    def test_single_pass_route_packed_matches_route(self, line_circuit):
        arch = ibm_16q_2x8()
        profile = profile_circuit(line_circuit)
        from repro.mapping import DistanceMatrix, initial_mapping

        mapping = initial_mapping(profile, arch, DistanceMatrix(arch))
        router = SabreRouter(arch)
        routed, swaps, final = router.route(line_circuit, dict(mapping))
        log = router.route_packed(PackedDAG.from_circuit(line_circuit), None, mapping)
        assert log.num_swaps == swaps
        assert log.initial_mapping == mapping
        assert log.final_mapping == final
        materialized = router.materialize(line_circuit, log, arch.name)
        assert list(materialized.gates) == list(routed.gates)

    def test_bidirectional_passes_need_the_reverse_pack(self, line_circuit):
        router = SabreRouter(ibm_16q_2x8(), SabreParameters(passes=3))
        mapping = {q: q for q in range(line_circuit.num_qubits)}
        with pytest.raises(ValueError, match="reversed"):
            router.route_packed(PackedDAG.from_circuit(line_circuit), None, mapping)

    @pytest.mark.parametrize("benchmark_name", ["sym6_145", "qft_16"])
    def test_bidirectional_never_worse(self, benchmark_name):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark(benchmark_name)
        arch = ibm_16q_2x8()
        single = route_circuit(circuit, arch, parameters=SabreParameters(passes=1))
        refined = route_circuit(circuit, arch, parameters=SabreParameters(passes=3))
        assert refined.num_swaps <= single.num_swaps
        verify_routing(circuit, refined.routed_circuit, arch, refined.initial_mapping)

    def test_restarts_never_worse_and_deterministic(self):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("sym6_145")
        arch = ibm_16q_2x8()
        single = route_circuit(circuit, arch)
        restarted = SabreParameters(restarts=3)
        first = route_circuit(circuit, arch, parameters=restarted)
        second = route_circuit(circuit, arch, parameters=restarted)
        assert first.num_swaps <= single.num_swaps
        assert first.num_swaps == second.num_swaps
        assert first.initial_mapping == second.initial_mapping
        verify_routing(circuit, first.routed_circuit, arch, first.initial_mapping)

    def test_restarts_on_single_qubit_architecture(self):
        """Degenerate chips have nothing to transpose; restarts must not crash."""
        circuit = QuantumCircuit(1).extend([h(0), measure(0)])
        arch = chain_architecture(1)
        result = route_circuit(
            circuit, arch, parameters=SabreParameters(restarts=3, passes=3)
        )
        assert result.num_swaps == 0
        assert len(result.routed_circuit) == 2

    def test_bidirectional_winner_replays_from_recorded_mapping(self):
        """With passes > 1 the winning pass's initial mapping is recorded."""
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("qft_16")
        arch = ibm_16q_2x8()
        result = route_circuit(
            circuit, arch, parameters=SabreParameters(passes=3, restarts=2)
        )
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)


class TestSwapCountRegression:
    """The incremental router must never route worse than the pre-refactor
    router did; the pinned counts are the old router's on the seed tree."""

    PRE_REFACTOR_SWAPS = {
        ("sym6_145", False): 280,
        ("sym6_145", True): 207,
        ("z4_268", False): 402,
        ("z4_268", True): 287,
        ("qft_16", False): 134,
        ("qft_16", True): 76,
    }

    @pytest.mark.parametrize("benchmark_name,four_qubit", sorted(PRE_REFACTOR_SWAPS))
    def test_swap_counts_do_not_regress(self, benchmark_name, four_qubit):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark(benchmark_name)
        result = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=four_qubit))
        assert result.num_swaps <= self.PRE_REFACTOR_SWAPS[(benchmark_name, four_qubit)]


class TestDenseCouplingAdvantage:
    def test_more_connections_never_hurt_much(self):
        """4-qubit buses (denser coupling) should not increase the swap count materially."""
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("sym6_145")
        sparse = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=False))
        dense = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=True))
        assert dense.num_swaps <= sparse.num_swaps * 1.1 + 5

    def test_perfect_layout_for_chain_circuit_needs_no_swaps(self):
        """Section 5.3.1: a chain program on a chain layout maps perfectly."""
        from repro.benchmarks import ising_model_circuit
        from repro.design import DesignFlow, DesignOptions

        circuit = ising_model_circuit(8, trotter_steps=2)
        arch = DesignFlow(circuit, DesignOptions(local_trials=200)).design(0)
        result = route_circuit(circuit, arch)
        assert result.num_swaps == 0
