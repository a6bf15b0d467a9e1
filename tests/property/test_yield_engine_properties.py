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
  for the paper's thresholds and for non-foldable ones;
* the native ``chip_survivors`` count equals the numpy compaction loop,
  the dense mask and the ``numpy``-backend estimate on random chips of
  up to 20 qubits, arbitrary thresholds and non-finite frequencies, and
  declines to the numpy loop on out-of-range indices; its noise is drawn
  through ``fabrication_noise`` with the C draw active, and the count
  also equals the dense mask over numpy's own draw.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.collision import (
    ANHARMONICITY_GHZ,
    DEFAULT_THRESHOLDS,
    CollisionThresholds,
    YieldSimulator,
    find_collisions,
    merge_kernel,
)
from repro.collision.yield_simulator import collision_index_arrays, fabrication_noise
from repro.hardware import Architecture, Lattice
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


@contextlib.contextmanager
def screening_backend(name):
    """Run the block under one screening backend, then restore the previous one."""
    previous = merge_kernel.active_backend()
    merge_kernel.set_backend(name)
    try:
        yield
    finally:
        merge_kernel.set_backend(previous)


def native_kernel():
    """The C survivor count, whichever backend is active."""
    with screening_backend("native"):
        return merge_kernel.native_kernel("chip_survivors")


def native_noise(simulator, num_qubits):
    """The simulator's noise tensor, drawn by ``fabrication_noise`` with
    the C draw active."""
    with screening_backend("native"):
        return fabrication_noise(
            simulator.seed, simulator.sigma_ghz, (simulator.trials, num_qubits)
        )


def estimate_outcome(simulator, frequencies, pairs, triples):
    """The estimate's success count, or the exception type and message it raises."""
    try:
        return simulator.estimate_from_arrays(frequencies, pairs, triples).successes
    except Exception as error:  # the outcome is compared, not handled
        return type(error), str(error)


NON_FINITE = [math.nan, math.inf, -math.inf]

threshold_sets = st.one_of(
    st.sampled_from([DEFAULT_THRESHOLDS, NON_FOLDABLE]),
    st.builds(
        CollisionThresholds,
        **{
            f"condition_{c}_ghz": st.floats(0.0, 0.5, allow_nan=False)
            for c in (1, 2, 3, 5, 6, 7)
        },
    ),
)

deltas = st.one_of(st.just(ANHARMONICITY_GHZ), st.floats(-0.6, 0.6, allow_nan=False))


@st.composite
def random_chips(draw, max_qubits=20, max_connections=30):
    """Frequencies (some non-finite) plus random pair and triple index lists."""
    n = draw(st.integers(1, max_qubits))
    frequencies = draw(frequency_vectors(n, n))
    if draw(st.booleans()):
        for position in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            frequencies[position] = draw(st.sampled_from(NON_FINITE))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=max_connections))
    triples = draw(st.lists(st.tuples(index, index, index), max_size=max_connections))
    return frequencies, pairs, triples


@st.composite
def chips_with_one_edited_index(draw):
    """A small chip with one index replaced by a value on either side of
    the valid ``[0, n)`` boundaries (or by a valid one)."""
    frequencies, pairs, triples = draw(random_chips(max_qubits=6, max_connections=4))
    rows = [list(row) for row in pairs + triples]
    if rows:
        n = frequencies.shape[0]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from([-n - 1, -n, -1, 0, n - 1, n, n + 1])
        )
    pairs = [tuple(row) for row in rows[:len(pairs)]]
    triples = [tuple(row) for row in rows[len(pairs):]]
    return frequencies, pairs, triples


@st.composite
def boundary_cases(draw):
    """A chip, delta and thresholds for noiseless trials: one condition's
    threshold sits exactly on (or one ulp beside) a value one of the
    chip's connections compares it with; the other thresholds are 0."""
    frequencies, pairs, triples = draw(random_chips(max_qubits=4, max_connections=3))
    assume(pairs or triples)
    delta = draw(st.one_of(st.just(ANHARMONICITY_GHZ), st.floats(-0.6, 0.0)))
    f, half = frequencies, delta / 2.0
    compared = {}
    if pairs:
        j, k = draw(st.sampled_from(pairs))
        diff = f[j] - f[k]
        compared[1] = [abs(diff)]
        compared[2] = [abs(diff + half), abs(-diff + half)]
        compared[3] = [abs(diff + delta), abs(-diff + delta)]
    if triples:
        j, i, k = draw(st.sampled_from(triples))
        compared[5] = [abs(f[i] - f[k])]
        compared[6] = [abs(f[i] - f[k] + delta), abs(f[k] - f[i] + delta)]
        compared[7] = [abs(2.0 * f[j] + delta - (f[k] + f[i]))]
    condition = draw(st.sampled_from(sorted(compared)))
    value = float(draw(st.sampled_from(compared[condition])))
    threshold = draw(st.sampled_from(
        [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
    ))
    thresholds = CollisionThresholds(
        **{f"condition_{c}_ghz": threshold if c == condition else 0.0
           for c in (1, 2, 3, 5, 6, 7)}
    )
    return (frequencies, pairs, triples), delta, thresholds


#: No approximate-equality condition can fire: only condition 4 tests.
NO_THRESHOLDS = CollisionThresholds(*[0.0] * 6)


def on_every_clause_boundary(test):
    """Add explicit examples putting each strict threshold comparison
    (each clause of conditions 1-3 and 5-7) on its boundary and one ulp
    to either side.

    Each example's chip has one connection, oriented so the chosen
    clause compares the smaller value of its condition, and every other
    threshold is 0: the chosen comparison alone decides the trial.
    """
    delta, half = ANHARMONICITY_GHZ, ANHARMONICITY_GHZ / 2.0
    f = np.array([5.05, 5.17, 5.26])
    cases = []
    for j, k in ((0, 1), (1, 0)):
        diff = f[j] - f[k]
        clauses = {1: [abs(diff)], 2: [abs(diff + half), abs(-diff + half)],
                   3: [abs(diff + delta), abs(-diff + delta)]}
        cases += [(c, value, (f[:2], [(j, k)], [])) for c, values in clauses.items()
                  for value in values if value == min(values)]
    for j, i, k in ((0, 1, 2), (0, 2, 1)):
        clauses = {5: [abs(f[i] - f[k])],
                   6: [abs(f[i] - f[k] + delta), abs(f[k] - f[i] + delta)],
                   7: [abs(2.0 * f[j] + delta - (f[k] + f[i]))]}
        cases += [(c, value, (f, [], [(j, i, k)])) for c, values in clauses.items()
                  for value in values if value == min(values)]
    for condition, value, chip in cases:
        for threshold in (value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)):
            thresholds = CollisionThresholds(
                **{f"condition_{c}_ghz": float(threshold) if c == condition else 0.0
                   for c in (1, 2, 3, 5, 6, 7)}
            )
            test = example(case=(chip, delta, thresholds))(test)
    return test


@pytest.mark.skipif("native" not in merge_kernel.available_backends(),
                    reason="native library unavailable: no C toolchain")
# inf - inf in the numpy masks warns; NaN compares false on both paths.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNativeSurvivorsMatchNumpy:
    @given(
        chip=random_chips(),
        sigma=sigmas_ghz,
        seed=seeds,
        trials=st.one_of(st.just(1), trial_counts),
        thresholds=threshold_sets,
        delta=deltas,
    )
    @example(chip=(np.array([5.05, 5.17]), [], [(0, 1, 1)]), sigma=0.0, seed=0,
             trials=1, thresholds=DEFAULT_THRESHOLDS, delta=ANHARMONICITY_GHZ)
    @example(chip=(np.array([5.05, 5.29]), [(0, 1)], []), sigma=0.0, seed=0,
             trials=1, thresholds=NON_FOLDABLE, delta=ANHARMONICITY_GHZ)
    @example(chip=(np.array([math.nan, math.inf, 5.1]), [(0, 1), (1, 2)], [(2, 0, 1)]),
             sigma=0.03, seed=3, trials=50, thresholds=DEFAULT_THRESHOLDS,
             delta=ANHARMONICITY_GHZ)
    @settings(max_examples=examples(200))
    def test_native_count_equals_every_reference(
        self, chip, sigma, seed, trials, thresholds, delta
    ):
        frequencies, pairs, triples = chip
        simulator = YieldSimulator(trials=trials, sigma_ghz=sigma, seed=seed,
                                   delta_ghz=delta, thresholds=thresholds)
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        noise = native_noise(simulator, frequencies.shape[0])
        native = simulator._native_survivors(
            native_kernel(), frequencies, noise, pairs_array, triples_array
        )
        assert native is not None
        assert native == simulator._compacted_survivors(
            frequencies, noise, pairs_array, triples_array
        )
        dense = simulator.collision_mask(frequencies[None, :] + noise, pairs, triples)
        assert native == trials - int(dense.sum())
        assert native == dense_successes(simulator, frequencies, pairs, triples)
        for name in ("numpy", "native"):
            with screening_backend(name):
                estimate = simulator.estimate_from_arrays(frequencies, pairs, triples)
            assert estimate.successes == native

    @given(case=boundary_cases())
    @on_every_clause_boundary
    # fj == fk - delta exactly (5.25 == 5.0 + 0.25): condition 4's strict
    # comparisons, one clause at a time.
    @example(case=((np.array([5.25, 5.0]), [(0, 1)], []), -0.25, NO_THRESHOLDS))
    @example(case=((np.array([5.0, 5.25]), [(0, 1)], []), -0.25, NO_THRESHOLDS))
    @settings(max_examples=examples(200))
    def test_threshold_boundaries_agree(self, case):
        """Noiseless trials on exact threshold boundaries: every strict
        comparison decides on both paths as it does in numpy."""
        (frequencies, pairs, triples), delta, thresholds = case
        simulator = YieldSimulator(trials=1, sigma_ghz=0.0, seed=0,
                                   delta_ghz=delta, thresholds=thresholds)
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        noise = native_noise(simulator, frequencies.shape[0])
        native = simulator._native_survivors(
            native_kernel(), frequencies, noise, pairs_array, triples_array
        )
        assert native == simulator._compacted_survivors(
            frequencies, noise, pairs_array, triples_array
        )
        dense = simulator.collision_mask(frequencies[None, :] + noise, pairs, triples)
        assert native == 1 - int(dense.sum())

    @given(
        chip=chips_with_one_edited_index(),
        sigma=sigmas_ghz,
        seed=seeds,
        trials=st.one_of(st.just(1), trial_counts),
    )
    @example(chip=(np.array([5.05, 5.17, 5.29]), [(0, 1), (1, -1)], []),
             sigma=0.0, seed=0, trials=1)
    @example(chip=(np.array([5.05, 5.17, 5.29]), [(0, 1)], [(1, 0, 3)]),
             sigma=0.0, seed=0, trials=1)
    @example(chip=(np.array([5.10, 5.10, 5.29]), [(0, 1)], [(1, 0, 3)]),
             sigma=0.0, seed=0, trials=1)
    @settings(max_examples=examples(100))
    def test_out_of_range_indices_decline_to_numpy(self, chip, sigma, seed, trials):
        """Outside ``[0, n)`` the C count declines, so both backends give
        numpy's answer: a wrapped count, or the same exception."""
        frequencies, pairs, triples = chip
        simulator = YieldSimulator(trials=trials, sigma_ghz=sigma, seed=seed)
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        noise = native_noise(simulator, frequencies.shape[0])
        native = simulator._native_survivors(
            native_kernel(), frequencies, noise, pairs_array, triples_array
        )
        n = frequencies.shape[0]
        in_range = all(0 <= i < n for row in pairs + triples for i in row)
        assert (native is not None) == in_range
        with screening_backend("numpy"):
            expected = estimate_outcome(simulator, frequencies, pairs, triples)
        with screening_backend("native"):
            assert estimate_outcome(simulator, frequencies, pairs, triples) == expected

    @given(rows=st.integers(1, 4), cols=st.integers(1, 5), sigma=sigmas_ghz, seed=seeds,
           data=st.data())
    @settings(max_examples=examples(40))
    def test_architecture_estimate_equals_numpy_backend(self, rows, cols, sigma, seed, data):
        lattice = Lattice.rectangle(rows, cols)
        designed = data.draw(frequency_vectors(lattice.num_qubits, lattice.num_qubits))
        architecture = Architecture.from_layout(
            "chip", lattice, frequencies=dict(zip(lattice.qubits, designed.tolist()))
        )
        simulator = YieldSimulator(trials=300, sigma_ghz=sigma, seed=seed)
        with screening_backend("numpy"):
            expected = simulator.estimate(architecture)
        with screening_backend("native"):
            assert simulator.estimate(architecture) == expected

    def test_declines_arrays_the_kernel_cannot_read(self):
        simulator = YieldSimulator(trials=20, seed=1)
        pairs_array, triples_array = collision_index_arrays([(0, 1)], [(1, 0, 2)])
        frequencies = np.array([5.05, 5.17, 5.29])
        noise = native_noise(simulator, 3)
        kernel = native_kernel()
        assert simulator._native_survivors(
            kernel, frequencies, noise, pairs_array, triples_array
        ) is not None
        strided = np.repeat(frequencies, 2)[::2]
        narrow = pairs_array.astype(np.int32)
        for args in ((strided, noise, pairs_array, triples_array),
                     (frequencies, np.asfortranarray(noise), pairs_array, triples_array),
                     (frequencies, noise, narrow, triples_array)):
            assert simulator._native_survivors(kernel, *args) is None
