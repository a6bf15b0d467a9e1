"""Tests of Algorithm 3's candidate ranking on both backends.

Covers three layers:

* when the C count applies: with the native library active and
  thresholds the folded kernel supports
  (``YieldSimulator._foldable_thresholds``), every ranking is counted in
  C; other thresholds fall back to the generic numpy kernel;
* the counts of
  :meth:`~repro.collision.yield_simulator.YieldSimulator.ranking_failure_counts`
  equal the joint Monte Carlo kernel's for every candidate, and a region
  the C kernel declines (an index outside ``[0, n)``, a non-contiguous
  array) is counted by numpy and counted once in
  ``screening/native_fallbacks``;
* the allocator integration — Algorithm 3 produces bit-identical plans
  counted in C (the ``native`` backend) and by numpy (``numpy``), for
  every allocation strategy and for the unique collision structures of
  an evaluation grid, where the native backend leaves the numpy kernel
  no candidate row at all.

Class and test names that speak of bounds or screens predate the exact
C count, which replaced an interval screen whose lower and upper bounds
pinned most counts; each such test now asserts the exact count.  Tests of the C count skip without a C toolchain.
"""

import numpy as np
import pytest

from repro.collision import CollisionThresholds, YieldSimulator
from repro.benchmarks import get_benchmark
from repro.design import (
    ALLOCATION_STRATEGIES,
    DesignEngine,
    FrequencyAllocator,
    reset_shared_caches,
)
from repro.design.engine import (
    BusStrategy,
    DesignOptions,
    FrequencyStrategy,
    architecture_collision_key,
)
from repro.hardware import Architecture, Lattice
from repro.hardware.frequency import candidate_frequencies
from repro.runtime.metrics import diff_snapshots, global_metrics

def random_region(rng, num_qubits=None):
    """A randomized local region shaped like the allocator's: every pair
    and triple involves the scanned qubit (column ``q``)."""
    n = int(num_qubits if num_qubits is not None else rng.integers(2, 7))
    q = int(rng.integers(0, n))
    base = np.round(rng.uniform(5.0, 5.34, size=n), 2)
    others = [i for i in range(n) if i != q]
    pairs = [((q, o) if rng.random() < 0.5 else (o, q))
             for o in others if rng.random() < 0.8]
    triples = []
    if n >= 3:
        for _ in range(int(rng.integers(0, 6))):
            i, k = rng.choice(others, size=2, replace=False)
            role = rng.random()
            if role < 0.34:
                triples.append((q, int(i), int(k)))
            elif role < 0.67:
                triples.append((int(i), q, int(k)))
            else:
                triples.append((int(i), int(k), q))
    return q, base, pairs, triples


def exact_counts(simulator, candidates, q, base, pairs, triples, noise=None):
    """The joint numpy kernel's count of every candidate of one region."""
    batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
    batch[:, q] = candidates
    return simulator.failure_counts(batch, pairs, triples, noise=noise)


def rank_one(simulator, candidates, q, base, pairs, triples, noise=None):
    """The ranking counts of one region: a one-region batch."""
    return simulator.ranking_failure_counts(
        candidates, [(q, base, pairs, triples, noise)]
    )[0]


def counted(action):
    """Run ``action``; return its result and the counter deltas it caused."""
    before = global_metrics().snapshot()
    result = action()
    return result, diff_snapshots(global_metrics().snapshot(), before)["counters"]


@pytest.fixture
def native(merge_backend):
    """Run the test with the C kernels active."""
    merge_backend("native")


EXOTIC = CollisionThresholds(condition_3_ghz=0.5)


class TestScreeningApplicable:
    """When the C count applies: foldable thresholds on the native backend."""

    def test_paper_constants_are_applicable(self, native):
        simulator = YieldSimulator(trials=100, seed=1)
        assert simulator._foldable_thresholds()
        candidates = candidate_frequencies()
        ranking, counters = counted(lambda: rank_one(
            simulator, candidates, 0, np.array([0.0, 5.1]), [(0, 1)], []
        ))
        # Counted in C: the numpy kernel scored no candidate row.
        assert "yield/kernel_rows" not in counters
        assert "screening/native_fallbacks" not in counters
        assert (ranking == exact_counts(
            simulator, candidates, 0, np.array([0.0, 5.1]), [(0, 1)], []
        )).all()

    def test_positive_anharmonicity_rejected(self):
        assert not YieldSimulator(trials=100, seed=1, delta_ghz=0.34)._foldable_thresholds()

    def test_overlapping_interval_geometry_rejected(self):
        # A condition-3 threshold wider than |delta| merges the carve-outs,
        # which defeats the folded kernel and so the C count.
        assert not YieldSimulator(trials=100, seed=1, thresholds=EXOTIC)._foldable_thresholds()

    def test_bounds_refused_when_not_applicable(self, native):
        """Even with the C kernels active, thresholds the folded kernel
        does not support are ranked by the generic numpy kernel."""
        simulator = YieldSimulator(trials=100, seed=1, thresholds=EXOTIC)
        candidates = candidate_frequencies()
        _, counters = counted(lambda: rank_one(
            simulator, candidates, 0, np.array([0.0, 5.1]), [(0, 1)], []
        ))
        assert counters["yield/kernel_rows"] == candidates.shape[0]
        assert "screening/native_fallbacks" not in counters

    def test_unsorted_candidates_are_ranked(self, merge_backend):
        """Any candidate order is counted, candidate by candidate, on
        both backends."""
        simulator = YieldSimulator(trials=300, seed=1)
        ascending = candidate_frequencies()
        base, pairs, triples = np.array([0.0, 5.1, 5.22]), [(0, 1), (2, 0)], [(1, 0, 2)]
        rankings = []
        for backend in ("numpy", "native"):
            merge_backend(backend)
            forward = rank_one(simulator, ascending, 0, base, pairs, triples)
            backward = rank_one(simulator, ascending[::-1], 0, base, pairs, triples)
            assert (backward == forward[::-1]).all()
            rankings.append(forward)
        assert (rankings[0] == rankings[1]).all()


@pytest.mark.usefixtures("native")
class TestBoundValidity:
    """The C counts equal the joint kernel's counts on every candidate
    (the interval bounds these tests are named for now coincide with
    the exact count)."""

    TRIALS = 700

    def test_bounds_contain_joint_counts(self):
        rng = np.random.default_rng(7)
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        checked = 0
        for case in range(60):
            q, base, pairs, triples = random_region(rng)
            if not pairs and not triples:
                continue
            noise = np.random.default_rng(case).normal(
                0.0, 0.03, size=(self.TRIALS, base.shape[0])
            )
            exact = exact_counts(simulator, candidates, q, base, pairs, triples, noise)
            ranking = rank_one(simulator, candidates, q, base, pairs, triples, noise)
            assert (ranking == exact).all()
            checked += 1
        assert checked > 30

    def test_single_event_regions_are_pinned_exactly(self):
        """One pair connection."""
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13])
        noise = np.random.default_rng(5).normal(0.0, 0.03, size=(self.TRIALS, 2))
        exact = exact_counts(simulator, candidates, 0, base, [(0, 1)], [], noise)
        ranking = rank_one(simulator, candidates, 0, base, [(0, 1)], [], noise)
        assert (ranking == exact).all()

    def test_candidate_subset_supported(self):
        """A strided subset of the grid (copied to a contiguous array)."""
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        subset = candidate_frequencies()[::3]
        base = np.array([0.0, 5.08, 5.2])
        pairs, triples = [(0, 1), (0, 2)], [(0, 1, 2)]
        noise = np.random.default_rng(9).normal(0.0, 0.03, size=(self.TRIALS, 3))
        exact = exact_counts(simulator, subset, 0, base, pairs, triples, noise)
        ranking, counters = counted(
            lambda: rank_one(simulator, subset, 0, base, pairs, triples, noise)
        )
        assert (ranking == exact).all()
        assert "screening/native_fallbacks" not in counters


@pytest.mark.usefixtures("native")
class TestRankingCounts:
    """The counts of ``ranking_failure_counts`` and its declines."""

    TRIALS = 700

    def test_every_candidate_count_is_exact(self):
        """Every candidate's count is exact, so the minimum and its tie
        set are the joint kernel's."""
        rng = np.random.default_rng(11)
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        for case in range(40):
            q, base, pairs, triples = random_region(rng)
            if not pairs and not triples:
                continue
            noise = np.random.default_rng(1000 + case).normal(
                0.0, 0.03, size=(self.TRIALS, base.shape[0])
            )
            exact = exact_counts(simulator, candidates, q, base, pairs, triples, noise)
            ranking = rank_one(simulator, candidates, q, base, pairs, triples, noise)
            assert ranking.dtype == np.int64
            assert (ranking == exact).all()

    def test_no_connections_all_zero(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        ranking, counters = counted(lambda: rank_one(
            simulator, candidate_frequencies(), 0, np.array([0.0]), [], []
        ))
        assert ranking.shape == candidate_frequencies().shape
        assert (ranking == 0).all()
        assert "yield/kernel_rows" not in counters

    def test_degrades_to_joint_kernel_on_exotic_thresholds(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3, thresholds=EXOTIC)
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13])
        ranking = rank_one(simulator, candidates, 0, base, [(0, 1)], [])
        assert (ranking == exact_counts(simulator, candidates, 0, base, [(0, 1)], [])).all()

    def test_out_of_range_index_declines_to_numpy(self):
        """A negative index: numpy wraps it, C would read out of bounds."""
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13])
        ranking, counters = counted(lambda: rank_one(
            simulator, candidates, 0, base, np.array([[0, -1]]), []
        ))
        assert counters["screening/native_fallbacks"] == 1
        assert counters["yield/kernel_rows"] == candidates.shape[0]
        assert (ranking == exact_counts(simulator, candidates, 0, base, [(0, 1)], [])).all()

    def test_non_contiguous_noise_declines_to_numpy(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13, 5.2])
        noise = np.random.default_rng(4).normal(0.0, 0.03, size=(200, 3))
        pairs, triples = [(0, 1)], [(1, 0, 2)]
        ranking, counters = counted(lambda: rank_one(
            simulator, candidates, 0, base, pairs, triples, np.asfortranarray(noise)
        ))
        assert counters["screening/native_fallbacks"] == 1
        assert counters["yield/kernel_rows"] == candidates.shape[0]
        assert (ranking == exact_counts(
            simulator, candidates, 0, base, pairs, triples, noise
        )).all()

    def test_stats_accumulate_and_reset(self):
        """The decline counter adds up across calls, once per declined
        batch, and a later baseline restarts it."""
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        region = (0, np.array([0.0, 5.13]), np.array([[0, -1]]), [], None)
        before = global_metrics().snapshot()
        simulator.ranking_failure_counts(candidate_frequencies(), [region, region])
        middle = global_metrics().snapshot()
        simulator.ranking_failure_counts(candidate_frequencies(), [region])
        now = global_metrics().snapshot()
        assert diff_snapshots(now, before)["counters"]["screening/native_fallbacks"] == 2
        assert diff_snapshots(now, middle)["counters"]["screening/native_fallbacks"] == 1


def _allocate_under(merge_backend, name, allocator, architectures):
    """Plans and counter deltas of ``allocator`` under one backend.

    The shared caches are cleared first: the ranking memo's keys
    deliberately exclude the backend, so a warm memo would serve the
    second backend from the first and compare nothing.
    """
    merge_backend(name)
    reset_shared_caches()
    before = global_metrics().snapshot()
    plans = [allocator.allocate(arch) for arch in architectures]
    return plans, diff_snapshots(global_metrics().snapshot(), before)["counters"]


class TestAllocatorIdentity:
    """The backend and the shared ranking caches never change a plan."""

    def grid(self, rows, cols):
        return Architecture.from_layout(f"g{rows}x{cols}", Lattice.rectangle(rows, cols))

    @pytest.mark.parametrize("strategy", sorted(ALLOCATION_STRATEGIES))
    def test_screening_is_bit_identical_per_strategy(self, strategy, merge_backend):
        allocator = FrequencyAllocator(local_trials=500, seed=11, strategy=strategy)
        arch = self.grid(2, 4)
        in_c, _ = _allocate_under(merge_backend, "native", allocator, [arch])
        direct, _ = _allocate_under(merge_backend, "numpy", allocator, [arch])
        assert in_c == direct

    def test_only_the_native_backend_screens(self, merge_backend):
        """``numpy`` counts every candidate with the numpy kernel;
        ``native`` counts all of them in C."""
        allocator = FrequencyAllocator(local_trials=300, seed=11)
        arch = self.grid(2, 3)
        direct, direct_counters = _allocate_under(
            merge_backend, "numpy", allocator, [arch]
        )
        in_c, c_counters = _allocate_under(
            merge_backend, "native", allocator, [arch]
        )
        assert direct_counters.get("yield/kernel_rows", 0) > 0
        assert "yield/kernel_rows" not in c_counters
        assert "screening/native_fallbacks" not in c_counters
        assert in_c == direct

    def test_ranking_memo_serves_repeat_allocations_identically(self):
        arch = self.grid(2, 3)
        allocator = FrequencyAllocator(local_trials=400, seed=11)
        first = allocator.allocate(arch)
        # The second allocation is served almost entirely from the
        # process-wide ranking memo; it must not drift.
        second = allocator.allocate(arch)
        assert first == second

    def test_zero_sigma_tie_break_unchanged(self):
        """sigma = 0 collapses the noise; the documented mid-band
        tie-break must survive the C count."""
        from repro.hardware.frequency import middle_frequency

        arch = Architecture.from_layout("chain", Lattice.rectangle(1, 2))
        frequencies = FrequencyAllocator(sigma_ghz=0.0, local_trials=10).allocate(arch)
        center = arch.lattice.central_qubit()
        other = (set(arch.qubits) - {center}).pop()
        assert frequencies[center] == pytest.approx(middle_frequency())
        assert frequencies[other] == pytest.approx(5.15)


class TestGridScreening:
    """The C count on the evaluation grid's cold Algorithm 3 workload.

    The unique collision structures of the ``eff-full`` bus series and
    the ``eff-rd-bus`` seed clouds of two benchmarks, deduplicated as the
    design engine's frequency stage deduplicates them.
    """

    BENCHMARKS = ("sym6_145", "z4_268")
    SEEDS = (1, 2)
    LOCAL_TRIALS = 800

    def structures(self):
        engine = DesignEngine()
        cheap = DesignOptions(frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY)
        unique = {}
        for name in self.BENCHMARKS:
            circuit = get_benchmark(name)
            limit = engine.max_four_qubit_buses(circuit)
            designs = [engine.design(circuit, buses, cheap) for buses in range(limit + 1)]
            for seed in self.SEEDS:
                options = DesignOptions(
                    bus_strategy=BusStrategy.RANDOM,
                    random_bus_seed=seed,
                    frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY,
                )
                designs += [engine.design(circuit, buses, options)
                            for buses in range(1, limit + 1)]
            for arch in designs:
                unique.setdefault(architecture_collision_key(arch), arch)
        return list(unique.values())

    def test_screened_plans_match_unscreened_and_skip_the_joint_kernel(
        self, merge_backend,
    ):
        structures = self.structures()
        assert len(structures) == 11
        allocator = FrequencyAllocator(local_trials=self.LOCAL_TRIALS)
        in_c, counters = _allocate_under(
            merge_backend, "native", allocator, structures
        )
        direct, _ = _allocate_under(merge_backend, "numpy", allocator, structures)
        assert in_c == direct
        assert counters.get("design/allocation_calls", 0) > 0
        # Every ranking was counted in C: the numpy kernel scored no row.
        assert "yield/kernel_rows" not in counters
        assert "screening/native_fallbacks" not in counters
