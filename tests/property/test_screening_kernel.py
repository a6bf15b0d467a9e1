"""Property tests of the C candidate count behind Algorithm 3's ranking.

Invariants covered:

* ``region_failure_counts``, reached through
  :func:`repro.collision.screening.screen_candidate_bounds_batch`,
  returns for every candidate exactly the failed-trial count of the
  numpy folded kernel (``YieldSimulator._failure_counts_folded``), for
  random foldable thresholds and anharmonicities, the scanned column
  anywhere, pairs in either order, triples with the scanned qubit as
  centre or spectator, NaN noise, zero trials, and candidate arrays
  that are unsorted, non-uniform, of length 1 or longer than 64;
* batching is transparent: each region of a batch gets the counts it
  gets alone.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.collision import YieldSimulator, available_backends, merge_kernel
from repro.collision.conditions import CollisionThresholds
from repro.collision.screening import screen_candidate_bounds_batch
from repro.collision.yield_simulator import DEFAULT_CHUNK_ELEMENTS
from repro.hardware.frequency import candidate_frequencies
from strategies import examples

pytestmark = [
    pytest.mark.property,
    pytest.mark.skipif(
        "native" not in available_backends(), reason="no C toolchain"
    ),
]

GRID = candidate_frequencies()

_band = st.floats(4.9, 5.45, allow_nan=False)
#: Grid values make exact threshold coincidences likely under zero noise.
_frequency = st.one_of(st.sampled_from(list(GRID)), _band)


@contextlib.contextmanager
def native_backend():
    """Run the block with the C kernels active, then restore the backend."""
    previous = merge_kernel.active_backend()
    merge_kernel.set_backend("native")
    try:
        yield
    finally:
        merge_kernel.set_backend(previous)


@st.composite
def foldable_physics(draw):
    """(delta, thresholds) that ``_foldable_thresholds`` accepts."""
    delta = draw(st.one_of(st.just(-0.34), st.floats(-0.6, -0.01)))
    limit = -delta
    thresholds = CollisionThresholds(
        condition_1_ghz=draw(st.floats(0.0, 0.1)),
        condition_2_ghz=draw(st.floats(0.0, limit / 2.0)),
        condition_3_ghz=draw(st.floats(0.0, limit)),
        condition_5_ghz=draw(st.floats(0.0, 0.1)),
        condition_6_ghz=draw(st.floats(0.0, limit)),
        condition_7_ghz=draw(st.floats(0.0, 0.1)),
    )
    assume(YieldSimulator(delta_ghz=delta, thresholds=thresholds)._foldable_thresholds())
    return delta, thresholds


@st.composite
def regions(draw, trials):
    """One local region shaped like the allocator's, on ``trials`` trials."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(0, n - 1))
    base = np.array(draw(st.lists(_frequency, min_size=n, max_size=n)))
    others = [o for o in range(n) if o != q]
    pairs = [
        (q, o) if draw(st.booleans()) else (o, q)
        for o in others if draw(st.booleans())
    ]
    triples = []
    if len(others) >= 2:
        for _ in range(draw(st.integers(0, 5))):
            i, k = draw(st.permutations(others))[:2]
            role = draw(st.integers(0, 2))
            triples.append(((q, i, k), (i, q, k), (i, k, q))[role])
    sigma = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1]))
    noise = np.random.default_rng(draw(st.integers(0, 2**32))).normal(
        0.0, sigma, (trials, n)
    )
    for _ in range(draw(st.integers(0, 3)) if noise.size else 0):
        row, column = draw(st.integers(0, trials - 1)), draw(st.integers(0, n - 1))
        noise[row, column] = np.nan
    return (
        q, base,
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.array(triples, dtype=np.int64).reshape(-1, 3),
        noise,
    )


candidate_arrays = st.one_of(
    st.just(GRID),
    st.lists(_frequency, min_size=1, max_size=80).map(np.array),
)


def c_counts(candidates, batch, trials, delta, thresholds):
    with native_backend():
        return screen_candidate_bounds_batch(
            candidates, batch, trials, delta, thresholds
        )


def numpy_counts(candidates, region, trials, delta, thresholds):
    """The folded numpy kernel's count of every candidate."""
    q, base, pairs, triples, noise = region
    if trials == 0:
        return np.zeros(candidates.shape[0], dtype=np.int64)
    simulator = YieldSimulator(trials=trials, delta_ghz=delta, thresholds=thresholds)
    designs = np.repeat(base[None, :], candidates.shape[0], axis=0)
    designs[:, q] = candidates
    return simulator._failure_counts_folded(
        designs, pairs, triples, noise, DEFAULT_CHUNK_ELEMENTS
    )


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_backends_agree_exactly(data):
    trials = data.draw(st.sampled_from([0, 1, 7, 64]))
    delta, thresholds = data.draw(foldable_physics())
    region = data.draw(regions(trials))
    assume(region[2].size or region[3].size)
    candidates = data.draw(candidate_arrays)
    (counts,) = c_counts(candidates, [region], trials, delta, thresholds)
    expected = numpy_counts(candidates, region, trials, delta, thresholds)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected.tolist()


@settings(max_examples=examples(25), deadline=None)
@given(st.data())
def test_slot_batching_is_transparent(data):
    trials = data.draw(st.sampled_from([1, 16]))
    delta, thresholds = data.draw(foldable_physics())
    batch = data.draw(st.lists(regions(trials), min_size=1, max_size=4))
    candidates = data.draw(candidate_arrays)
    together = c_counts(candidates, batch, trials, delta, thresholds)
    for region, counts in zip(batch, together):
        (alone,) = c_counts(candidates, [region], trials, delta, thresholds)
        assert counts.tolist() == alone.tolist()


def test_non_uniform_grid_is_counted():
    """Any candidate array is counted: here a grid with a hole in it."""
    grid = np.concatenate((GRID[:3], GRID[4:]))
    region = (
        0, np.array([0.0, 5.13, 5.2]),
        np.array([[0, 1], [2, 0]], dtype=np.int64),
        np.array([[1, 0, 2]], dtype=np.int64),
        np.random.default_rng(5).normal(0.0, 0.03, (300, 3)),
    )
    delta, thresholds = -0.34, CollisionThresholds()
    (counts,) = c_counts(grid, [region], 300, delta, thresholds)
    assert counts.tolist() == numpy_counts(grid, region, 300, delta, thresholds).tolist()
