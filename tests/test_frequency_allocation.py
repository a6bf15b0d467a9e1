"""Tests for the frequency allocation subroutine (Algorithm 3)."""

import pytest

from repro.collision import YieldSimulator
from repro.design import (
    ALLOCATION_STRATEGIES,
    FrequencyAllocator,
    allocate_frequencies,
    resolve_strategy,
)
from repro.hardware import Architecture, Lattice
from repro.hardware.frequency import (
    ALLOWED_FREQUENCY_MAX_GHZ,
    ALLOWED_FREQUENCY_MIN_GHZ,
    five_frequency_scheme,
    middle_frequency,
    validate_frequencies,
)


def chain_architecture(num_qubits):
    return Architecture.from_layout("chain", Lattice.rectangle(1, num_qubits))


def grid_architecture(rows, cols):
    return Architecture.from_layout(f"grid{rows}x{cols}", Lattice.rectangle(rows, cols))


@pytest.fixture
def fast_allocator():
    return FrequencyAllocator(local_trials=400, seed=11)


class TestAllocationBasics:
    def test_every_qubit_gets_a_frequency(self, fast_allocator):
        arch = grid_architecture(2, 3)
        frequencies = fast_allocator.allocate(arch)
        assert set(frequencies) == set(arch.qubits)

    def test_frequencies_stay_in_allowed_band(self, fast_allocator):
        frequencies = fast_allocator.allocate(grid_architecture(2, 4))
        assert validate_frequencies(frequencies) == []

    def test_center_qubit_gets_middle_frequency(self, fast_allocator):
        arch = grid_architecture(3, 3)
        frequencies = fast_allocator.allocate(arch)
        center = arch.lattice.central_qubit()
        assert frequencies[center] == pytest.approx(middle_frequency())

    def test_allocation_is_deterministic(self, fast_allocator):
        arch = chain_architecture(5)
        assert fast_allocator.allocate(arch) == fast_allocator.allocate(arch)

    def test_single_qubit_architecture(self, fast_allocator):
        arch = Architecture.from_layout("one", Lattice.from_coordinates({0: (0, 0)}))
        assert fast_allocator.allocate(arch) == {0: middle_frequency()}

    def test_empty_architecture_rejected(self, fast_allocator):
        with pytest.raises(ValueError):
            fast_allocator.allocate(Architecture(name="empty", lattice=Lattice()))

    def test_convenience_wrapper(self):
        frequencies = allocate_frequencies(chain_architecture(4), local_trials=300, seed=5)
        assert len(frequencies) == 4


class TestAllocationQuality:
    def test_connected_qubits_are_separated(self, fast_allocator):
        """No connected pair should be designed inside the condition-1 window."""
        arch = chain_architecture(6)
        frequencies = fast_allocator.allocate(arch)
        for a, b in arch.coupling_edges():
            assert abs(frequencies[a] - frequencies[b]) > 0.017

    def test_common_neighbours_are_separated(self, fast_allocator):
        """Spectator pairs (condition 5) should not be designed on top of each other."""
        arch = chain_architecture(6)
        frequencies = fast_allocator.allocate(arch)
        for j, i, k in arch.collision_triples():
            assert abs(frequencies[i] - frequencies[k]) > 0.017

    def test_beats_five_frequency_scheme_on_chain(self):
        """Section 5.4.3: the optimized allocation outperforms the 5-frequency scheme."""
        arch = chain_architecture(8)
        optimized = arch.with_frequencies(
            FrequencyAllocator(local_trials=1500, seed=3).allocate(arch), name="opt"
        )
        five_freq = arch.with_frequencies(
            five_frequency_scheme(arch.coordinates()), name="5freq"
        )
        simulator = YieldSimulator(trials=6000, seed=17)
        assert (
            simulator.estimate(optimized).yield_rate
            > simulator.estimate(five_freq).yield_rate
        )

    def test_yield_positive_for_small_grid(self):
        arch = grid_architecture(2, 3)
        optimized = arch.with_frequencies(
            FrequencyAllocator(local_trials=1500, seed=3).allocate(arch)
        )
        assert YieldSimulator(trials=4000, seed=23).estimate(optimized).yield_rate > 0.0

    def test_refinement_pass_keeps_assignment_valid(self):
        """The optional coordinate-descent sweeps stay in-band and deterministic."""
        arch = grid_architecture(2, 3)
        allocator = FrequencyAllocator(local_trials=400, seed=11, refinement_passes=2)
        frequencies = allocator.allocate(arch)
        assert validate_frequencies(frequencies) == []
        assert frequencies == allocator.allocate(arch)

    def test_candidate_grid_resolution_respected(self, fast_allocator):
        frequencies = fast_allocator.allocate(chain_architecture(5))
        for value in frequencies.values():
            steps = (value - ALLOWED_FREQUENCY_MIN_GHZ) / fast_allocator.frequency_step_ghz
            assert abs(steps - round(steps)) < 1e-6
            assert ALLOWED_FREQUENCY_MIN_GHZ <= value <= ALLOWED_FREQUENCY_MAX_GHZ


class TestGoldenAssignment:
    def test_default_mode_assignment_is_pinned(self):
        """Regression pin of the paper-default Algorithm 3 assignment.

        The exact frequencies of ``sym6_145``'s 1-bus design under the
        default configuration (2000 local trials, seed 2020, bfs-greedy).
        Any change to the allocator's machinery, seeding, traversal, or
        tie-break shows up here as a bit-exact mismatch.
        """
        from repro.benchmarks import get_benchmark
        from repro.design import DesignFlow

        architecture = DesignFlow(get_benchmark("sym6_145")).design(1)
        assert architecture.frequencies == {
            0: 5.28, 1: 5.34, 2: 5.24, 3: 5.10, 4: 5.08, 5: 5.16, 6: 5.17,
        }


class TestTieBreak:
    """The documented candidate tie-break: mid-band first, then lower frequency.

    With ``sigma = 0`` the local simulation is deterministic, so every
    non-colliding candidate survives all trials and the tie set is large —
    the selection is decided purely by the tie-break rule.
    """

    def test_tied_candidates_resolve_toward_mid_band(self):
        arch = chain_architecture(2)
        frequencies = FrequencyAllocator(sigma_ghz=0.0, local_trials=10).allocate(arch)
        center = arch.lattice.central_qubit()
        other = (set(arch.qubits) - {center}).pop()
        assert frequencies[center] == pytest.approx(middle_frequency())
        # Candidates within 0.017 GHz of the centre's 5.17 GHz collide
        # (condition 1); 5.15 and 5.19 are the nearest non-colliding
        # candidates, equally far from mid-band — the lower one wins.
        assert frequencies[other] == pytest.approx(5.15)

    def test_tie_break_is_deterministic(self):
        arch = grid_architecture(2, 3)
        allocator = FrequencyAllocator(sigma_ghz=0.0, local_trials=10)
        assert allocator.allocate(arch) == allocator.allocate(arch)


class TestStrategies:
    def test_known_strategies_registered(self):
        assert set(ALLOCATION_STRATEGIES) == {"bfs-greedy", "coordinate-descent"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown allocation strategy"):
            FrequencyAllocator(strategy="simulated-annealing").allocate(
                chain_architecture(3)
            )

    def test_refinement_passes_select_coordinate_descent(self):
        resolved = resolve_strategy("bfs-greedy", refinement_passes=2)
        assert resolved.name == "coordinate-descent"
        assert resolve_strategy("bfs-greedy", refinement_passes=0).name == "bfs-greedy"

    def test_coordinate_descent_matches_refinement_knob(self):
        arch = grid_architecture(2, 3)
        via_strategy = FrequencyAllocator(
            local_trials=400, seed=11, strategy="coordinate-descent"
        ).allocate(arch)
        via_knob = FrequencyAllocator(
            local_trials=400, seed=11, refinement_passes=1
        ).allocate(arch)
        assert via_strategy == via_knob
