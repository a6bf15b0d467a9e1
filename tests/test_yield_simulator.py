"""Tests for the Monte Carlo yield simulator (paper Section 4.3.1)."""

import numpy as np
import pytest

from repro.collision import YieldSimulator, estimate_yield, merge_kernel
from repro.collision.yield_simulator import fabrication_noise
from repro.hardware import Architecture, Lattice, ibm_16q_2x8, ibm_20q_4x5
from repro.runtime.metrics import diff_snapshots, global_metrics


@pytest.fixture(params=["native", "numpy"])
def yield_backend(request, merge_backend):
    """Run a test under the C survivor count and under the numpy loop."""
    merge_backend(request.param)
    return request.param


def chain_architecture(num_qubits, frequencies=None):
    """A 1 x num_qubits chain with optional explicit frequencies."""
    lattice = Lattice.rectangle(1, num_qubits)
    return Architecture.from_layout("chain", lattice, frequencies=frequencies or {})


class TestBasicBehaviour:
    def test_zero_noise_good_design_yields_one(self):
        arch = chain_architecture(3, {0: 5.05, 1: 5.17, 2: 5.29})
        estimate = YieldSimulator(trials=500, sigma_ghz=0.0, seed=1).estimate(arch)
        assert estimate.yield_rate == 1.0
        assert estimate.successes == 500

    def test_zero_noise_colliding_design_yields_zero(self):
        arch = chain_architecture(2, {0: 5.10, 1: 5.11})
        estimate = YieldSimulator(trials=200, sigma_ghz=0.0, seed=1).estimate(arch)
        assert estimate.yield_rate == 0.0

    def test_missing_frequencies_rejected(self):
        arch = chain_architecture(3)
        with pytest.raises(ValueError):
            YieldSimulator(trials=10).estimate(arch)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            YieldSimulator(trials=0)
        with pytest.raises(ValueError):
            YieldSimulator(sigma_ghz=-1.0)

    def test_seeded_runs_are_reproducible(self, yield_backend):
        arch = ibm_16q_2x8()
        first = YieldSimulator(trials=2000, seed=42).estimate(arch)
        second = YieldSimulator(trials=2000, seed=42).estimate(arch)
        assert first.yield_rate == second.yield_rate

    def test_estimate_fields_consistent(self):
        arch = chain_architecture(4, {0: 5.04, 1: 5.16, 2: 5.28, 3: 5.08})
        estimate = YieldSimulator(trials=1000, seed=3).estimate(arch)
        assert estimate.trials == 1000
        assert estimate.successes == round(estimate.yield_rate * 1000)
        assert 0.0 <= estimate.failure_rate <= 1.0
        assert estimate.standard_error() >= 0.0

    def test_estimate_yield_convenience_wrapper(self):
        arch = chain_architecture(3, {0: 5.05, 1: 5.17, 2: 5.29})
        assert estimate_yield(arch, trials=200, sigma_ghz=0.0).yield_rate == 1.0


class TestPhysicalTrends:
    """Directional checks that mirror the paper's qualitative claims."""

    def test_more_noise_means_lower_yield(self):
        arch = chain_architecture(5, {0: 5.04, 1: 5.16, 2: 5.28, 3: 5.08, 4: 5.20})
        low_noise = YieldSimulator(trials=4000, sigma_ghz=0.010, seed=5).estimate(arch)
        high_noise = YieldSimulator(trials=4000, sigma_ghz=0.060, seed=5).estimate(arch)
        assert low_noise.yield_rate > high_noise.yield_rate

    def test_more_connections_mean_lower_yield(self):
        sparse = ibm_16q_2x8(use_four_qubit_buses=False)
        dense = ibm_16q_2x8(use_four_qubit_buses=True)
        simulator = YieldSimulator(trials=6000, seed=9)
        assert simulator.estimate(sparse).yield_rate > simulator.estimate(dense).yield_rate

    def test_larger_chip_has_lower_yield(self):
        simulator = YieldSimulator(trials=6000, seed=9)
        yield_16 = simulator.estimate(ibm_16q_2x8()).yield_rate
        yield_20 = simulator.estimate(ibm_20q_4x5()).yield_rate
        assert yield_20 <= yield_16

    def test_paper_motivation_low_yield_at_current_precision(self):
        """Section 1: at sigma ~ 130 MHz a 16+ qubit chip yields below 1%."""
        arch = ibm_16q_2x8(use_four_qubit_buses=True)
        estimate = YieldSimulator(trials=4000, sigma_ghz=0.130, seed=2).estimate(arch)
        assert estimate.yield_rate < 0.01

    def test_isolated_qubits_always_yield(self):
        lattice = Lattice.from_coordinates({0: (0, 0), 1: (5, 5)})
        arch = Architecture(
            name="no-connections", lattice=lattice, buses=[], frequencies={0: 5.1, 1: 5.1}
        )
        estimate = YieldSimulator(trials=500, sigma_ghz=0.05, seed=1).estimate(arch)
        assert estimate.yield_rate == 1.0


class TestEstimateFromArrays:
    def test_local_region_interface(self):
        simulator = YieldSimulator(trials=2000, sigma_ghz=0.0, seed=1)
        estimate = simulator.estimate_from_arrays(
            np.array([5.05, 5.17, 5.29]), pairs=[(0, 1), (1, 2)], triples=[(1, 0, 2)]
        )
        assert estimate.yield_rate == 1.0

    def test_collision_mask_shape(self):
        simulator = YieldSimulator(trials=10, seed=1)
        sampled = np.full((10, 3), 5.1)
        mask = simulator.collision_mask(sampled, pairs=[(0, 1)], triples=[])
        assert mask.shape == (10,)
        assert mask.all()  # identical frequencies always collide (condition 1)


class TestDegenerateInputs:
    """Regression tests: empty pair/triple lists and single-qubit regions."""

    def test_collision_mask_with_no_pairs_or_triples_is_all_success(self):
        simulator = YieldSimulator(trials=8, seed=1)
        sampled = np.full((8, 3), 5.1)
        mask = simulator.collision_mask(sampled, pairs=[], triples=[])
        assert mask.shape == (8,)
        assert not mask.any()

    def test_estimate_from_arrays_single_qubit_always_succeeds(self):
        simulator = YieldSimulator(trials=500, sigma_ghz=0.1, seed=3)
        estimate = simulator.estimate_from_arrays(np.array([5.17]), pairs=[], triples=[])
        assert estimate.yield_rate == 1.0
        assert estimate.successes == 500

    def test_estimate_batch_single_qubit_always_succeeds(self):
        simulator = YieldSimulator(trials=300, sigma_ghz=0.1, seed=3)
        batch = np.array([[5.05], [5.17], [5.29]])
        estimates = simulator.estimate_batch(batch, pairs=[], triples=[])
        assert len(estimates) == 3
        assert all(e.successes == 300 for e in estimates)

    def test_single_qubit_architecture_estimate(self):
        arch = chain_architecture(1, {0: 5.17})
        estimate = YieldSimulator(trials=100, sigma_ghz=0.1, seed=5).estimate(arch)
        assert estimate.yield_rate == 1.0


class TestEstimateBatch:
    def chain(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        triples = [(1, 0, 2), (2, 1, 3)]
        return pairs, triples

    def test_batch_of_one_matches_estimate_from_arrays(self):
        pairs, triples = self.chain()
        frequencies = np.array([5.04, 5.16, 5.28, 5.08])
        simulator = YieldSimulator(trials=1500, seed=21)
        single = simulator.estimate_from_arrays(frequencies, pairs, triples)
        assert simulator.estimate_batch(frequencies[None, :], pairs, triples) == [single]

    def test_batch_matches_sequential_loop(self):
        pairs, triples = self.chain()
        rng = np.random.default_rng(4)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(40, 4))
        simulator = YieldSimulator(trials=800, seed=9)
        sequential = [simulator.estimate_from_arrays(row, pairs, triples) for row in batch]
        assert simulator.estimate_batch(batch, pairs, triples) == sequential

    def test_chunking_preserves_results(self):
        pairs, triples = self.chain()
        rng = np.random.default_rng(4)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(17, 4))
        simulator = YieldSimulator(trials=300, seed=9)
        reference = simulator.estimate_batch(batch, pairs, triples)
        assert simulator.estimate_batch(
            batch, pairs, triples, max_chunk_elements=1
        ) == reference

    def test_one_dimensional_input_treated_as_batch_of_one(self):
        pairs, triples = self.chain()
        frequencies = np.array([5.04, 5.16, 5.28, 5.08])
        simulator = YieldSimulator(trials=400, seed=2)
        assert simulator.estimate_batch(frequencies, pairs, triples) == [
            simulator.estimate_from_arrays(frequencies, pairs, triples)
        ]

    def test_single_candidate_matches_chunked_batch_kernel(self):
        """Regression: a batch of one must run through the same chunked
        kernel as larger batches — bit-identical to its row inside any
        batch — instead of the old divergent ``estimate_from_arrays``
        special case."""
        pairs, triples = self.chain()
        rng = np.random.default_rng(12)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(2, 4))
        simulator = YieldSimulator(trials=900, seed=13)
        alone = simulator.estimate_batch(batch[:1], pairs, triples)
        together = simulator.estimate_batch(batch, pairs, triples)
        assert alone[0] == together[0]
        # And the raw counts agree with failure_counts directly.
        counts = simulator.failure_counts(batch[:1], pairs, triples)
        assert alone[0].successes == simulator.trials - int(counts[0])

    def test_chunk_smaller_than_one_candidate_row(self):
        """max_chunk_elements below trials x qubits still yields one-row
        chunks with unchanged results."""
        pairs, triples = self.chain()
        rng = np.random.default_rng(5)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(6, 4))
        simulator = YieldSimulator(trials=250, seed=8)
        reference = simulator.failure_counts(batch, pairs, triples)
        tiny = simulator.failure_counts(batch, pairs, triples, max_chunk_elements=1)
        assert (tiny == reference).all()

    def test_chunk_exactly_one_candidate_row(self):
        pairs, triples = self.chain()
        rng = np.random.default_rng(6)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(5, 4))
        trials = 250
        simulator = YieldSimulator(trials=trials, seed=8)
        reference = simulator.failure_counts(batch, pairs, triples)
        one_row = simulator.failure_counts(
            batch, pairs, triples, max_chunk_elements=trials * batch.shape[1]
        )
        assert (one_row == reference).all()

    def test_chunk_not_dividing_candidate_count(self):
        """7 candidates in chunks of 3 (3 + 3 + 1) match the unchunked run."""
        pairs, triples = self.chain()
        rng = np.random.default_rng(7)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(7, 4))
        trials = 301  # a trial count that divides nothing in sight
        simulator = YieldSimulator(trials=trials, seed=8)
        reference = simulator.failure_counts(batch, pairs, triples)
        chunked = simulator.failure_counts(
            batch, pairs, triples, max_chunk_elements=3 * trials * batch.shape[1]
        )
        assert (chunked == reference).all()
        estimates = simulator.estimate_batch(
            batch, pairs, triples, max_chunk_elements=3 * trials * batch.shape[1]
        )
        assert [trials - e.successes for e in estimates] == [int(c) for c in reference]

    def test_exotic_thresholds_fall_back_to_generic_kernel(self):
        from repro.collision import CollisionThresholds

        # Thresholds wider than |delta| defeat the folded interval kernel;
        # the generic fallback must still match the sequential loop.
        wide = CollisionThresholds(condition_3_ghz=0.5)
        simulator = YieldSimulator(trials=200, seed=6, thresholds=wide)
        assert not simulator._foldable_thresholds()
        pairs, triples = self.chain()
        rng = np.random.default_rng(8)
        batch = 5.17 + rng.normal(0.0, 0.05, size=(5, 4))
        sequential = [simulator.estimate_from_arrays(row, pairs, triples) for row in batch]
        assert simulator.estimate_batch(batch, pairs, triples) == sequential


class TestSurvivorCompaction:
    def test_qft_16_two_bus_design_matches_dense_count(self, yield_backend):
        from repro.benchmarks.library import get_benchmark
        from repro.design.engine import DesignEngine

        arch = DesignEngine().design(get_benchmark("qft_16"), 2)
        simulator = YieldSimulator(trials=10_000, seed=7)
        index_of = {q: i for i, q in enumerate(arch.qubits)}
        frequencies = np.array([arch.frequencies[q] for q in arch.qubits])
        pairs = [(index_of[a], index_of[b]) for a, b in arch.collision_pairs()]
        triples = [
            (index_of[j], index_of[i], index_of[k]) for j, i, k in arch.collision_triples()
        ]
        noise = np.random.default_rng(7).normal(0.0, simulator.sigma_ghz, (10_000, arch.num_qubits))
        dense = simulator.collision_mask(frequencies + noise, pairs, triples)
        assert simulator.estimate(arch).successes == 10_000 - int(dense.sum())


def noise_declines(draw):
    """``yield/noise_declines/*`` counter deltas of one call of ``draw``."""
    before = global_metrics().snapshot()
    draw()
    counters = diff_snapshots(global_metrics().snapshot(), before)["counters"]
    prefix = "yield/noise_declines/"
    return {name[len(prefix):]: n for name, n in counters.items() if name.startswith(prefix)}


class TestFabricationNoise:
    """The C draw is numpy's draw; every decline is counted."""

    def test_both_slow_paths_match_numpy(self, merge_backend):
        """2,500 values from seed 0 take the ziggurat's idx-0 tail and its
        wedge test, and cross a refill of the kernel's raw buffer."""
        merge_backend("native")
        slow = np.zeros(2, dtype=np.int64)
        drawn = merge_kernel.pcg64_normal(
            merge_kernel.native_kernel("pcg64_normal_fill"),
            np.random.default_rng(0).bit_generator, 0.03, (2500,), slow,
        )
        tails, wedges = slow.tolist()
        assert tails > 0 and wedges > 0
        expected = np.random.default_rng(0).normal(0.0, 0.03, 2500)
        assert drawn.tobytes() == expected.tobytes()

    def test_longer_draws_extend_shorter_ones(self, yield_backend):
        """Rows come from one stream in order: the first rows of a longer
        draw are the shorter draw of the same seed."""
        short = fabrication_noise(11, 0.03, (1000, 7))
        long = fabrication_noise(11, 0.03, (5000, 7))
        assert long[:1000].tobytes() == short.tobytes()

    def test_native_backend_draws_in_c(self, merge_backend):
        merge_backend("native")
        assert merge_kernel.normal_fill_verified()
        assert noise_declines(lambda: fabrication_noise(3, 0.03, (100, 4))) == {}

    def test_numpy_backend_declines(self, merge_backend):
        merge_backend("numpy")
        declines = noise_declines(lambda: fabrication_noise(3, 0.03, (100, 4)))
        assert declines == {"backend": 1}

    def test_other_bit_generators_decline(self, merge_backend):
        """Another bit generator, or a generator the caller keeps drawing
        from, takes numpy's path and advances as numpy advances it."""
        merge_backend("native")
        mt = np.random.Generator(np.random.MT19937(5))
        expected = np.random.Generator(np.random.MT19937(5)).normal(0.0, 0.03, (50, 3))
        drawn = {}
        declines = noise_declines(lambda: drawn.update(mt=fabrication_noise(mt, 0.03, (50, 3))))
        assert declines == {"bit_generator": 1}
        assert drawn["mt"].tobytes() == expected.tobytes()
        shared = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        fabrication_noise(shared, 0.03, (50, 3))
        reference.normal(0.0, 0.03, (50, 3))
        assert shared.bit_generator.state == reference.bit_generator.state

    def test_failed_self_check_declines_to_numpy(self, merge_backend, monkeypatch):
        merge_backend("native")
        real = merge_kernel.pcg64_normal

        def corrupted(*args, **kwargs):
            out = real(*args, **kwargs)
            out.flat[-1] += 1.0
            return out

        monkeypatch.setattr(merge_kernel, "pcg64_normal", corrupted)
        monkeypatch.setattr(merge_kernel, "_normal_verified", None)
        drawn = {}
        declines = noise_declines(lambda: drawn.update(
            noise=fabrication_noise(3, 0.03, (100, 4))
        ))
        assert not merge_kernel.normal_fill_verified()
        assert declines == {"self_check": 1}
        expected = np.random.default_rng(3).normal(0.0, 0.03, (100, 4))
        assert drawn["noise"].tobytes() == expected.tobytes()
