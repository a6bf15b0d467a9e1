"""Property tests of the batched Monte Carlo yield engine.

Invariants covered (ISSUE satellite list):

* a batch of size 1 through ``estimate_batch`` is *exactly*
  ``estimate_from_arrays`` (same seed => identical ``YieldEstimate``);
* a batch of any size equals the sequential ``estimate_from_arrays``
  loop under common random numbers;
* yield is monotonically non-increasing as ``sigma_ghz`` grows (common
  random numbers, collision-free designs);
* the collision mask is invariant under qubit relabeling;
* connection-free (degenerate) regions always fabricate successfully;
* the survivor-compacted ``estimate_from_arrays`` counts exactly the
  trials the dense ``collision_mask`` reference leaves collision-free,
  for the paper's thresholds and for non-foldable ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.collision import (
    DEFAULT_THRESHOLDS,
    CollisionThresholds,
    YieldSimulator,
    find_collisions,
)
from strategies import (
    chain_regions,
    examples,
    frequency_vectors,
    grid_frequencies_ghz,
    seeds,
    sigmas_ghz,
    star_regions,
    trial_counts,
)

pytestmark = pytest.mark.property


class TestBatchMatchesSequential:
    @given(region=chain_regions(), sigma=sigmas_ghz, seed=seeds, trials=trial_counts)
    @settings(max_examples=examples(40))
    def test_batch_of_one_is_exactly_estimate_from_arrays(self, region, sigma, seed, trials):
        frequencies, pairs, triples = region
        simulator = YieldSimulator(trials=trials, sigma_ghz=sigma, seed=seed)
        single = simulator.estimate_from_arrays(frequencies, pairs, triples)
        batched = simulator.estimate_batch(frequencies[None, :], pairs, triples)
        assert len(batched) == 1
        assert batched[0] == single

    @given(
        region=star_regions(grid=True),
        candidates=st.lists(grid_frequencies_ghz, min_size=2, max_size=12),
        sigma=sigmas_ghz,
        seed=seeds,
        trials=trial_counts,
    )
    @settings(max_examples=examples(40))
    def test_batch_equals_sequential_loop(self, region, candidates, sigma, seed, trials):
        frequencies, pairs, triples = region
        batch = np.repeat(frequencies[None, :], len(candidates), axis=0)
        batch[:, 0] = candidates
        simulator = YieldSimulator(trials=trials, sigma_ghz=sigma, seed=seed)
        sequential = [simulator.estimate_from_arrays(row, pairs, triples) for row in batch]
        assert simulator.estimate_batch(batch, pairs, triples) == sequential

    @given(region=star_regions(grid=True), sigma=sigmas_ghz, seed=seeds)
    @settings(max_examples=examples(25))
    def test_chunking_never_changes_estimates(self, region, sigma, seed):
        frequencies, pairs, triples = region
        batch = np.repeat(frequencies[None, :], 9, axis=0)
        simulator = YieldSimulator(trials=128, sigma_ghz=sigma, seed=seed)
        reference = simulator.estimate_batch(batch, pairs, triples)
        tiny_chunks = simulator.estimate_batch(
            batch, pairs, triples, max_chunk_elements=1
        )
        assert tiny_chunks == reference


class TestSigmaMonotonicity:
    @given(
        region=chain_regions(grid=True, max_qubits=5),
        sigma_lo=st.floats(0.002, 0.012, allow_nan=False),
        factor=st.floats(1.25, 2.0, allow_nan=False),
        seed=seeds,
    )
    @settings(
        max_examples=examples(40),
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_yield_non_increasing_in_sigma_under_crn(self, region, sigma_lo, factor, seed):
        """More fabrication noise never helps a *safely designed* region.

        The restriction to margin-safe designs is essential, not cosmetic:
        for a design sitting just outside a collision carve-out (e.g. a
        pair detuned by 20 MHz against the 17 MHz condition-1 threshold),
        growing sigma pushes fabrication samples *through* the carve-out
        and the yield genuinely rises — the model is only monotone once
        every designed detuning keeps a few sigma of margin from the
        nearest carve-out boundary, which is exactly how Algorithm 3's
        optimized plans look.
        """
        frequencies, pairs, triples = region
        designed = {q: float(f) for q, f in enumerate(frequencies)}
        sigma_hi = sigma_lo * factor
        margin = 2.5 * sigma_hi
        safe = CollisionThresholds(
            condition_1_ghz=DEFAULT_THRESHOLDS.condition_1_ghz + margin,
            condition_2_ghz=DEFAULT_THRESHOLDS.condition_2_ghz + margin,
            condition_3_ghz=DEFAULT_THRESHOLDS.condition_3_ghz + margin,
            condition_5_ghz=DEFAULT_THRESHOLDS.condition_5_ghz + margin,
            condition_6_ghz=DEFAULT_THRESHOLDS.condition_6_ghz + margin,
            condition_7_ghz=DEFAULT_THRESHOLDS.condition_7_ghz + margin,
        )
        assume(not find_collisions(designed, pairs, triples, thresholds=safe))
        trials = 400
        low = YieldSimulator(trials=trials, sigma_ghz=sigma_lo, seed=seed)
        high = YieldSimulator(trials=trials, sigma_ghz=sigma_hi, seed=seed)
        successes_lo = low.estimate_from_arrays(frequencies, pairs, triples).successes
        successes_hi = high.estimate_from_arrays(frequencies, pairs, triples).successes
        # Common random numbers couple the two runs trial by trial; a tiny
        # slack absorbs the rare trial that a larger kick moves *out* of a
        # carve-out interval.
        slack = trials // 50
        assert successes_hi <= successes_lo + slack


class TestRelabelingInvariance:
    @given(
        region=chain_regions(min_qubits=2, max_qubits=6),
        sigma=sigmas_ghz,
        seed=seeds,
        permutation_seed=seeds,
    )
    @settings(max_examples=examples(40))
    def test_collision_mask_invariant_under_qubit_relabeling(
        self, region, sigma, seed, permutation_seed
    ):
        frequencies, pairs, triples = region
        num_qubits = frequencies.shape[0]
        trials = 64
        rng = np.random.default_rng(seed)
        sampled = frequencies[None, :] + rng.normal(0.0, sigma, size=(trials, num_qubits))
        simulator = YieldSimulator(trials=trials, sigma_ghz=sigma, seed=seed)
        mask = simulator.collision_mask(sampled, pairs, triples)

        permutation = np.random.default_rng(permutation_seed).permutation(num_qubits)
        # Column q of the relabeled sample matrix holds the frequencies of
        # the qubit that was relabeled *to* q.
        relabeled = np.empty_like(sampled)
        relabeled[:, permutation] = sampled
        relabeled_pairs = [(int(permutation[a]), int(permutation[b])) for a, b in pairs]
        relabeled_triples = [
            (int(permutation[j]), int(permutation[i]), int(permutation[k]))
            for j, i, k in triples
        ]
        relabeled_mask = simulator.collision_mask(
            relabeled, relabeled_pairs, relabeled_triples
        )
        assert np.array_equal(mask, relabeled_mask)


def dense_successes(simulator, frequencies, pairs, triples):
    """``trials - collision_mask(...).sum()`` over the simulator's seeded noise draw."""
    noise = np.random.default_rng(simulator.seed).normal(
        0.0, simulator.sigma_ghz, size=(simulator.trials, frequencies.shape[0])
    )
    sampled = frequencies[None, :] + noise
    return simulator.trials - int(simulator.collision_mask(sampled, pairs, triples).sum())


#: Condition 3 wider than |delta| defeats the folded interval kernel.
NON_FOLDABLE = CollisionThresholds(condition_3_ghz=0.5)

connection_free_regions = frequency_vectors(1, 4).map(lambda f: (f, [], []))


class TestCompactedMatchesDense:
    @given(
        region=st.one_of(
            chain_regions(max_qubits=8), star_regions(), connection_free_regions
        ),
        sigma=sigmas_ghz,
        seed=seeds,
        trials=st.one_of(st.just(1), trial_counts),
        thresholds=st.sampled_from([DEFAULT_THRESHOLDS, NON_FOLDABLE]),
    )
    @example(
        region=(np.array([5.05, 5.06, 5.29]), [(0, 1), (1, 2)], [(1, 0, 2)]),
        sigma=0.0, seed=0, trials=1, thresholds=NON_FOLDABLE,
    )
    @example(
        region=(np.array([5.17]), [], []),
        sigma=0.05, seed=0, trials=1, thresholds=DEFAULT_THRESHOLDS,
    )
    @settings(max_examples=examples(50))
    def test_compacted_successes_equal_dense_mask(
        self, region, sigma, seed, trials, thresholds
    ):
        frequencies, pairs, triples = region
        simulator = YieldSimulator(
            trials=trials, sigma_ghz=sigma, seed=seed, thresholds=thresholds
        )
        estimate = simulator.estimate_from_arrays(frequencies, pairs, triples)
        assert estimate.successes == dense_successes(simulator, frequencies, pairs, triples)


class TestDegenerateRegions:
    @given(frequencies=frequency_vectors(1, 4), sigma=sigmas_ghz, seed=seeds)
    @settings(max_examples=examples(30))
    def test_connection_free_regions_always_succeed(self, frequencies, sigma, seed):
        simulator = YieldSimulator(trials=64, sigma_ghz=sigma, seed=seed)
        estimate = simulator.estimate_from_arrays(frequencies, [], [])
        assert estimate.yield_rate == 1.0
        assert estimate.successes == 64
        batched = simulator.estimate_batch(
            np.repeat(frequencies[None, :], 3, axis=0), [], []
        )
        assert all(e.yield_rate == 1.0 for e in batched)
