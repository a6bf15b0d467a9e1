"""Tests for the exact interval-count screening engine.

Covers three layers:

* the raw bound kernel (:mod:`repro.collision.screening`) — validity and
  tightness of the per-candidate joint-count bounds against the joint
  Monte Carlo kernel on randomized local regions;
* the screen-then-verify entry point
  (:meth:`~repro.collision.yield_simulator.YieldSimulator.screened_failure_counts`)
  — the winner-preservation contract: every minimum-count candidate is
  known with its exact joint count;
* the allocator integration — Algorithm 3 produces bit-identical plans
  screened (the ``native`` backend) and ranked directly (``numpy``), for
  every allocation strategy and for the unique collision structures of
  an evaluation grid, where the screen leaves the joint kernel at most a
  tenth of the candidate rows.

The bound and screen layers need the C merge kernel, so those tests run
under ``native`` and skip without a C toolchain.
"""

import numpy as np
import pytest

from repro.collision import (
    CollisionThresholds,
    YieldSimulator,
    screening_applicable,
)
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


class TestScreeningApplicable:
    def test_paper_constants_are_applicable(self):
        simulator = YieldSimulator(trials=100, seed=1)
        assert screening_applicable(simulator.delta_ghz, simulator.thresholds)
        assert simulator.screening_enabled()

    def test_positive_anharmonicity_rejected(self):
        assert not screening_applicable(0.34, CollisionThresholds())

    def test_overlapping_interval_geometry_rejected(self):
        # A condition-3 threshold wider than |delta| merges the carve-outs;
        # this also defeats the folded joint kernel.
        wide = CollisionThresholds(condition_3_ghz=0.5)
        assert not screening_applicable(-0.34, wide)
        assert not YieldSimulator(trials=100, seed=1, thresholds=wide).screening_enabled()

    def test_bounds_refused_when_not_applicable(self):
        simulator = YieldSimulator(
            trials=100, seed=1, thresholds=CollisionThresholds(condition_3_ghz=0.5)
        )
        with pytest.raises(ValueError, match="not applicable"):
            simulator.candidate_failure_bounds(
                candidate_frequencies(), 0, np.array([0.0, 5.1]), [(0, 1)], []
            )

    def test_unsorted_candidates_rejected(self):
        simulator = YieldSimulator(trials=100, seed=1)
        descending = candidate_frequencies()[::-1]
        with pytest.raises(ValueError, match="ascending"):
            simulator.candidate_failure_bounds(
                descending, 0, np.array([0.0, 5.1]), [(0, 1)], []
            )
        with pytest.raises(ValueError, match="ascending"):
            simulator.screened_failure_counts(
                descending, 0, np.array([0.0, 5.1]), [(0, 1)], []
            )


@pytest.fixture
def native(merge_backend):
    """Run the test with the C merge kernel active."""
    merge_backend("native")


@pytest.mark.usefixtures("native")
class TestBoundValidity:
    """The bounds sandwich the joint kernel's counts on random regions."""

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
            batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
            batch[:, q] = candidates
            exact = simulator.failure_counts(batch, pairs, triples, noise=noise)
            bounds = simulator.candidate_failure_bounds(
                candidates, q, base, pairs, triples, noise=noise
            )
            assert (bounds.lower <= exact).all()
            assert (bounds.upper >= exact).all()
            checked += 1
        assert checked > 30

    def test_single_event_regions_are_pinned_exactly(self):
        """One pair connection: the interval counts are the joint counts."""
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13])
        noise = np.random.default_rng(5).normal(0.0, 0.03, size=(self.TRIALS, 2))
        batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
        batch[:, 0] = candidates
        exact = simulator.failure_counts(batch, [(0, 1)], [], noise=noise)
        bounds = simulator.candidate_failure_bounds(
            candidates, 0, base, [(0, 1)], [], noise=noise
        )
        assert (bounds.lower == exact).all()
        assert (bounds.upper == exact).all()
        assert bounds.exact.all()

    def test_candidate_subset_supported(self):
        """Pruning strategies rank ascending subsets of the grid."""
        simulator = YieldSimulator(trials=self.TRIALS, sigma_ghz=0.03, seed=3)
        subset = candidate_frequencies()[::3]
        base = np.array([0.0, 5.08, 5.2])
        pairs, triples = [(0, 1), (0, 2)], [(0, 1, 2)]
        noise = np.random.default_rng(9).normal(0.0, 0.03, size=(self.TRIALS, 3))
        batch = np.repeat(base[None, :], subset.shape[0], axis=0)
        batch[:, 0] = subset
        exact = simulator.failure_counts(batch, pairs, triples, noise=noise)
        bounds = simulator.candidate_failure_bounds(
            subset, 0, base, pairs, triples, noise=noise
        )
        assert (bounds.lower <= exact).all()
        assert (bounds.upper >= exact).all()


@pytest.mark.usefixtures("native")
class TestScreenedCounts:
    """The screen-then-verify contract of ``screened_failure_counts``."""

    TRIALS = 700

    def test_minimum_candidates_always_known_and_exact(self):
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
            batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
            batch[:, q] = candidates
            exact = simulator.failure_counts(batch, pairs, triples, noise=noise)
            screened = simulator.screened_failure_counts(
                candidates, q, base, pairs, triples, noise=noise
            )
            minimum = exact.min()
            # Every minimum-count candidate is known, with the exact count.
            assert screened.known[exact == minimum].all()
            assert (screened.counts[screened.known] == exact[screened.known]).all()
            assert screened.counts[screened.known].min() == minimum

    def test_no_connections_all_zero_and_known(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        before = global_metrics().snapshot()
        screened = simulator.screened_failure_counts(
            candidate_frequencies(), 0, np.array([0.0]), [], []
        )
        counters = diff_snapshots(global_metrics().snapshot(), before)["counters"]
        assert (screened.counts == 0).all()
        assert screened.known.all()
        assert counters.get("screening/pruned", 0) == 0

    def test_degrades_to_joint_kernel_on_exotic_thresholds(self):
        simulator = YieldSimulator(
            trials=200, sigma_ghz=0.03, seed=3,
            thresholds=CollisionThresholds(condition_3_ghz=0.5),
        )
        candidates = candidate_frequencies()
        base = np.array([0.0, 5.13])
        before = global_metrics().snapshot()
        screened = simulator.screened_failure_counts(
            candidates, 0, base, [(0, 1)], []
        )
        counters = diff_snapshots(global_metrics().snapshot(), before)["counters"]
        batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
        batch[:, 0] = candidates
        exact = simulator.failure_counts(batch, [(0, 1)], [])
        assert screened.known.all()
        assert (screened.counts == exact).all()
        # The direct ranking derived no bounds, so it records no screen.
        assert "screening/calls" not in counters

    def test_stats_accumulate_and_reset(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        before = global_metrics().snapshot()
        screened = simulator.screened_failure_counts(
            candidate_frequencies(), 0, np.array([0.0, 5.13]), [(0, 1)], []
        )
        counters = diff_snapshots(global_metrics().snapshot(), before)["counters"]
        candidates = candidate_frequencies().shape[0]
        assert counters["screening/calls"] == 1
        assert counters["screening/candidates"] == candidates
        # Pruned candidates are the ones left unknown; the known ones were
        # decided by their bounds or verified by the joint kernel.
        pruned = counters.get("screening/pruned", 0)
        verified = counters.get("screening/verified", 0)
        assert pruned == int((~screened.known).sum())
        exact = counters.get("screening/exact", 0)
        assert exact + verified == int(screened.known.sum())
        # Counts accumulate across calls; a later baseline restarts them.
        middle = global_metrics().snapshot()
        simulator.screened_failure_counts(
            candidate_frequencies(), 0, np.array([0.0, 5.13]), [(0, 1)], []
        )
        now = global_metrics().snapshot()
        assert diff_snapshots(now, before)["counters"]["screening/calls"] == 2
        assert diff_snapshots(now, middle)["counters"]["screening/calls"] == 1


@pytest.mark.usefixtures("native")
class TestSessionScreeningStats:
    """The ``screening/*`` metrics a command's ``--metrics-out`` reports."""

    PHASES = ("pack", "merge", "dispute", "joint")

    def _run_screen(self):
        simulator = YieldSimulator(trials=200, sigma_ghz=0.03, seed=3)
        simulator.screened_failure_counts(
            candidate_frequencies(), 0, np.array([0.0, 5.13]), [(0, 1)], []
        )

    def test_phase_counters_reset_with_the_logical_counters(self):
        self._run_screen()
        before = global_metrics().snapshot()
        self._run_screen()
        delta = diff_snapshots(global_metrics().snapshot(), before)
        # One baseline scopes the logical counters and the phase timers alike.
        assert delta["counters"]["screening/calls"] == 1
        timers = delta["timers"]
        assert timers["screening/pack"]["total_s"] > 0
        for phase in self.PHASES:
            assert timers[f"screening/{phase}"]["count"] == 1
            assert timers[f"screening/{phase}"]["total_s"] >= 0


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
        screened, _ = _allocate_under(merge_backend, "native", allocator, [arch])
        direct, _ = _allocate_under(merge_backend, "numpy", allocator, [arch])
        assert screened == direct

    def test_only_the_native_backend_screens(self, merge_backend):
        """``numpy`` ranks every candidate directly; ``native`` screens."""
        allocator = FrequencyAllocator(local_trials=300, seed=11)
        arch = self.grid(2, 3)
        direct, direct_counters = _allocate_under(
            merge_backend, "numpy", allocator, [arch]
        )
        screened, screened_counters = _allocate_under(
            merge_backend, "native", allocator, [arch]
        )
        assert direct_counters.get("screening/calls", 0) == 0
        assert screened_counters.get("screening/calls", 0) > 0
        assert screened == direct

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
        tie-break must survive the screened path."""
        from repro.hardware.frequency import middle_frequency

        arch = Architecture.from_layout("chain", Lattice.rectangle(1, 2))
        frequencies = FrequencyAllocator(sigma_ghz=0.0, local_trials=10).allocate(arch)
        center = arch.lattice.central_qubit()
        other = (set(arch.qubits) - {center}).pop()
        assert frequencies[center] == pytest.approx(middle_frequency())
        assert frequencies[other] == pytest.approx(5.15)


class TestGridScreening:
    """The screen on the evaluation grid's cold Algorithm 3 workload.

    The unique collision structures of the ``eff-full`` bus series and
    the ``eff-rd-bus`` seed clouds of two benchmarks, deduplicated as the
    design engine's frequency stage deduplicates them.
    """

    BENCHMARKS = ("sym6_145", "z4_268")
    SEEDS = (1, 2)
    LOCAL_TRIALS = 800
    #: Ceiling on the candidate rows the joint kernel may still score
    #: (the unscreened path scores all of them).
    MAX_JOINT_ROW_FRACTION = 0.10

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
        screened, counters = _allocate_under(
            merge_backend, "native", allocator, structures
        )
        direct, _ = _allocate_under(merge_backend, "numpy", allocator, structures)
        assert screened == direct
        candidates = counters.get("screening/candidates", 0)
        assert candidates > 0, "the screen never ran"
        verified = counters.get("screening/verified", 0)
        assert verified <= self.MAX_JOINT_ROW_FRACTION * candidates, (
            f"the joint kernel still scored {verified} of {candidates} candidate rows"
        )
