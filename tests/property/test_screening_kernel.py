"""Property tests of the fused single-pass C merge kernel.

Invariants covered:

* the C kernel returns ``(lower, upper)`` counts and dispute masks
  (``lower != upper``) bit-identical to the scalar reference
  ``_python_union_bounds`` for random interval families, including
  epsilon-sandwich edge cases: endpoints
  drawn from a shared pool and jittered by sub-epsilon / epsilon-scale
  multiples, so exact coincidences and barely-separated endpoints both
  occur;
* the kernel declines (returns None) a non-uniform candidate grid, so
  the caller ranks that batch directly;
* the counts are *valid* bounds: candidates comfortably inside some
  interval are counted by ``upper``, and ``lower`` never counts a
  candidate comfortably outside every interval;
* slot batching is transparent: stacking several regions into one call
  returns each slot's counts exactly as a single-slot call would.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collision import available_backends
from repro.collision.merge_kernel import (
    _python_union_bounds,
    candidate_bins,
    fused_union_bounds,
)
from repro.collision.screening import SCREENING_EPSILON
from repro.hardware.frequency import candidate_frequencies
from strategies import examples

pytestmark = pytest.mark.property

EPS = SCREENING_EPSILON

CANDIDATES = candidate_frequencies()

#: Epsilon-scale endpoint jitter: exact coincidence, sub-epsilon
#: separation, and just-past-threshold gaps around shared endpoints.
_jitter = st.sampled_from(
    [-2.0 * EPS, -EPS, -0.5 * EPS, 0.0, 0.5 * EPS, EPS, 2.0 * EPS]
)

_band_floats = st.floats(min_value=4.9, max_value=5.45,
                         allow_nan=False, allow_infinity=False)


@st.composite
def interval_matrices(draw):
    """(lows, highs) float32 matrices of one region's interval families.

    Endpoints come from a small shared pool plus epsilon-scale jitter,
    so distinct intervals frequently share endpoints exactly or sit
    within the merge thresholds of each other — the regime where the
    widened/narrowed two-threshold decisions actually differ.
    """
    trials = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(_band_floats, min_size=2, max_size=5))
    lows = np.empty((trials, cols), dtype=np.float32)
    highs = np.empty((trials, cols), dtype=np.float32)
    last = len(pool) - 1
    for row in range(trials):
        for col in range(cols):
            a = pool[draw(st.integers(0, last))] + draw(_jitter)
            b = pool[draw(st.integers(0, last))] + draw(_jitter)
            lo, hi = (a, b) if a <= b else (b, a)
            lows[row, col] = np.float32(lo)
            highs[row, col] = np.float32(hi)
    return lows, highs


def _all_backend_bounds(lows, highs, slots, num_slots):
    """The scalar reference's counts, plus the C kernel's when built."""
    bins = candidate_bins(CANDIDATES)
    results = {
        "python": _python_union_bounds(lows, highs, slots, num_slots, bins, EPS)
    }
    if "native" in available_backends():
        results["native"] = fused_union_bounds(
            lows, highs, slots, num_slots, bins, EPS
        )
    return results


@settings(max_examples=examples(40))
@given(interval_matrices())
def test_backends_agree_exactly(matrices):
    lows, highs = matrices
    slots = np.zeros(lows.shape[0], dtype=np.int64)
    results = _all_backend_bounds(lows, highs, slots, 1)
    reference_name, (ref_lower, ref_upper) = next(iter(results.items()))
    for backend, (lower, upper) in results.items():
        assert (lower == ref_lower).all(), (backend, reference_name)
        assert (upper == ref_upper).all(), (backend, reference_name)
        assert (
            (lower != upper) == (ref_lower != ref_upper)
        ).all(), f"dispute masks differ: {backend} vs {reference_name}"


@settings(max_examples=examples(30))
@given(interval_matrices())
def test_bounds_are_valid(matrices):
    lows, highs = matrices
    slots = np.zeros(lows.shape[0], dtype=np.int64)
    for backend, (lower, upper) in _all_backend_bounds(
        lows, highs, slots, 1
    ).items():
        lower, upper = lower[0], upper[0]
        assert (lower <= upper).all(), backend
        assert (lower >= 0).all(), backend
        # Margins of 2 * epsilon clear every widen/narrow/binning edge,
        # so these memberships must be decided the obvious way.
        lo64 = lows.astype(np.float64)
        hi64 = highs.astype(np.float64)
        for index, candidate in enumerate(CANDIDATES):
            inside = (
                (lo64 + 2.0 * EPS <= candidate)
                & (candidate <= hi64 - 2.0 * EPS)
            ).any(axis=1)
            outside = ~(
                (lo64 - 2.0 * EPS <= candidate)
                & (candidate <= hi64 + 2.0 * EPS)
            ).any(axis=1)
            assert upper[index] >= inside.sum(), backend
            assert lower[index] <= lows.shape[0] - outside.sum(), backend


@settings(max_examples=examples(25))
@given(interval_matrices(), interval_matrices())
def test_slot_batching_is_transparent(first, second):
    lows_a, highs_a = first
    lows_b, highs_b = second
    width = max(lows_a.shape[1], lows_b.shape[1])
    sentinel = np.float32(3.0e38)

    def pad(matrix):
        rows, cols = matrix.shape
        out = np.full((rows, width), sentinel, dtype=np.float32)
        out[:, :cols] = matrix
        return out

    lows = np.vstack([pad(lows_a), pad(lows_b)])
    highs = np.vstack([pad(highs_a), pad(highs_b)])
    slots = np.concatenate([
        np.zeros(lows_a.shape[0], dtype=np.int64),
        np.ones(lows_b.shape[0], dtype=np.int64),
    ])
    for backend, (lower, upper) in _all_backend_bounds(
        lows, highs, slots, 2
    ).items():
        for slot, (slot_lows, slot_highs) in enumerate(
            [(lows_a, highs_a), (lows_b, highs_b)]
        ):
            alone_lower, alone_upper = _all_backend_bounds(
                slot_lows, slot_highs,
                np.zeros(slot_lows.shape[0], dtype=np.int64), 1,
            )[backend]
            assert (lower[slot] == alone_lower[0]).all(), backend
            assert (upper[slot] == alone_upper[0]).all(), backend


def test_shared_endpoint_sandwich_regression():
    """Chains glued at one endpoint: the canonical epsilon-sandwich case."""
    b = np.float32(5.17)
    cases = [
        # touching intervals (gap exactly 0: narrowed splits, widened merges)
        [(5.10, float(b)), (float(b), 5.24)],
        # overlap beyond every threshold (both spaces merge)
        [(5.10, float(b) + 4 * EPS), (float(b) - 4 * EPS, 5.24)],
        # separation past both thresholds (both spaces split)
        [(5.10, float(b) - 4 * EPS), (float(b) + 4 * EPS, 5.24)],
        # degenerate zero-width interval on a shared endpoint
        [(float(b), float(b)), (5.10, 5.24)],
    ]
    for intervals in cases:
        lows = np.array([[lo for lo, _ in intervals]], dtype=np.float32)
        highs = np.array([[hi for _, hi in intervals]], dtype=np.float32)
        slots = np.zeros(1, dtype=np.int64)
        results = _all_backend_bounds(lows, highs, slots, 1)
        reference = next(iter(results.values()))
        for backend, (lower, upper) in results.items():
            assert (lower == reference[0]).all(), (backend, intervals)
            assert (upper == reference[1]).all(), (backend, intervals)


def test_non_uniform_grid_is_declined():
    """Only the uniform allocator grid has a C binning path."""
    grid = np.concatenate((CANDIDATES[:3], CANDIDATES[4:]))
    lows = np.array([[5.10]], dtype=np.float32)
    highs = np.array([[5.20]], dtype=np.float32)
    slots = np.zeros(1, dtype=np.int64)
    assert fused_union_bounds(
        lows, highs, slots, 1, candidate_bins(grid), EPS
    ) is None
