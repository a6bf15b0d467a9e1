"""Exact interval-count screening of Algorithm 3 candidate frequencies.

The frequency-allocation hot loop ranks every candidate frequency of one
scanned qubit by the joint Monte Carlo failure count of its local
collision region.  The joint kernel costs ``O(candidates x trials x
connections)`` — it materializes every (candidate, trial, connection)
frequency difference.  This module computes provably correct *per-event
interval counts* that bound — and almost always pin exactly — every
candidate's joint count in ``O(trials log trials + candidates)``, so the
expensive joint kernel only runs on the rare candidates the bounds
cannot decide.

**Why per-event failure sets are intervals.**  Fix the common-random-
numbers noise tensor and look at one collision event — one condition
family on one pair or triple of the local region.  Every such condition
depends on the scanned qubit's candidate frequency ``f`` through a
single monotone expression (``f`` enters each frequency difference
exactly once), so for each trial the set of candidate frequencies
violating the condition is an *interval* on the ``f`` axis: a
trial-specific shift of a constant threshold interval.

**From intervals to exact joint counts.**  The joint count ``J(f)`` is
the number of trials in which ``f`` lies in the *union* of that trial's
violating intervals.  Events that do not involve ``f`` at all
(spectator-spectator conditions of triples centred on the scanned
qubit) fail identical trial sets for every candidate: those trials are
counted once and removed.  For the remaining trials the per-trial union
is merged — sort each trial's interval endpoints, sweep a running
maximum — into *disjoint* components, after which counting becomes a
global prefix-sum over sorted endpoints: a candidate is inside exactly
``#{component lows < f} - #{component highs <= f}`` components, and
because components are disjoint within a trial that sum over all trials
*is* the number of failing trials.  No per-candidate work ever touches
the trial axis.

The sort/sweep/count itself is the C merge kernel of
:mod:`repro.collision.merge_kernel`, one fused pass per row of a packed
endpoint matrix.  The screen only runs while that kernel is the active
backend (``REPRO_SCREENING_BACKEND``): a vectorized numpy merge measured
slower than ranking every candidate with the joint kernel, so without
the C kernel
:meth:`~repro.collision.yield_simulator.YieldSimulator.screened_failure_counts_batch`
ranks directly.  This module owns the physics — turning a collision
region into interval families — and the epsilon bookkeeping that makes
the counts safe against float rounding.

Regions with a single event family skip the merge entirely: one
family's intervals are pairwise disjoint by construction
(:func:`screening_applicable` checks the threshold geometry), so the
family's translated endpoint counts are already exact.

**Floating-point safety.**  The joint kernel evaluates conditions with
float arithmetic whose rounding differs from the interval-endpoint
arithmetic by a bounded amount (a few ULPs — ~1e-15 GHz — on the
float64 single-family path; ~1e-6 GHz on the float32 merged-matrix
path).  Every count is therefore computed twice: once with intervals
*widened* by the path's epsilon (:data:`SINGLE_FAMILY_EPSILON` or
:data:`SCREENING_EPSILON`, both far above the respective rounding and
far below the 1e-2 GHz candidate grid step), giving an upper bound
``J+``, and once *narrowed* by it, giving a lower bound ``J-``.  A
candidate within epsilon of a condition boundary gets ``J- < J+`` and
is handed to the joint kernel instead of being trusted to the bounds;
everywhere else ``J- == J+`` pins the joint count exactly.
Correctness never depends on the epsilon being tight, only on it
exceeding the path's rounding error.

**Why the fused two-threshold merge bounds both spaces.**  The kernel
merges each trial's sorted intervals twice from one sweep: a *widened*
component starts where the low-vs-previous-running-max gap exceeds
``+2 eps``, a *narrowed* one where it exceeds ``-2 eps``.  The upper
count is valid under *any* set of merge decisions: splitting
overlapping widened intervals or bridging disjoint ones only ever
overcounts the widened union, which already contains every kernel
failure.  The lower count is valid because (a) a gap above ``-2 eps``
means the narrowed intervals (pulled ``eps`` inward from each side)
are genuinely disjoint, so the emitted components never overlap and
their total size never exceeds the narrowed union; and (b) a gap at or
below ``-2 eps`` means the *true* (pre-float32) intervals genuinely
overlap — the float32 gap is within ~1e-6 of the true gap (endpoint
rounding; the subtraction itself is exact near zero by Sterbenz), and
``2 eps = 1e-5`` clears that with room — so bridging them keeps the
components inside the narrowed union's span.  Either way ``J- <= J(f)
<= J+`` holds for every candidate, which is the only property the
screen-then-verify decision logic relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.conditions import CollisionThresholds
from repro.collision.merge_kernel import (
    CLAMP_GHZ,
    SENTINEL,
    CandidateBins,
    candidate_bins,
    fused_union_bounds,
)

#: Safety margin (GHz) between the interval-count arithmetic and the joint
#: kernel's float rounding.  The merged-interval matrices are built in
#: float32 (they are sort/scan bound), whose worst-case accumulated
#: rounding near 5.3 GHz is ~1e-6 GHz; the margin sits several times
#: above that and three decades below the 1e-2 GHz candidate grid step.
SCREENING_EPSILON = 5e-6

#: Margin used by the float64 single-family fast path, whose endpoint
#: arithmetic rounds at ~1e-15 GHz.  The tighter margin keeps the
#: single-family bounds exact for essentially every candidate.
SINGLE_FAMILY_EPSILON = 1e-9


@dataclass(frozen=True)
class ScreeningBounds:
    """Per-candidate bounds on the joint failed-trial count of one region.

    Attributes:
        lower: ``(num_candidates,)`` int64 — for every candidate, a count
            the joint kernel is *guaranteed* to reach (the narrowed
            merged-interval count).
        upper: ``(num_candidates,)`` int64 — a count the joint kernel is
            guaranteed not to exceed (the widened merged-interval count).
            Bounds agree — pinning the joint count exactly — unless the
            candidate sits within :data:`SCREENING_EPSILON` of a
            condition boundary.
        events: Number of distinct collision event families screened
            (deduplicated interval families plus the constant event).
    """

    lower: np.ndarray
    upper: np.ndarray
    events: int

    @property
    def exact(self) -> np.ndarray:
        """Boolean mask of candidates whose joint count the bounds pin."""
        return self.lower == self.upper


def screening_applicable(
    delta_ghz: float,
    thresholds: CollisionThresholds,
    epsilon: float = SCREENING_EPSILON,
) -> bool:
    """Whether the interval geometry supports exact per-event counts.

    Within one event family the member intervals must stay pairwise
    disjoint (the single-family fast path sums their counts) and every
    interval must keep positive width after the ``epsilon`` narrowing.
    The paper's constants satisfy every gap by an order of magnitude;
    exotic threshold configurations (which also defeat the folded joint
    kernel) simply disable screening.
    """
    t = thresholds
    if not delta_ghz < 0.0:
        return False
    margin = 4.0 * epsilon
    c2 = -delta_ghz / 2.0
    c34 = -delta_ghz - t.condition_3_ghz
    c6 = -delta_ghz
    widths = (
        t.condition_1_ghz, t.condition_2_ghz, t.condition_3_ghz,
        t.condition_5_ghz, t.condition_6_ghz, t.condition_7_ghz,
    )
    return (
        min(widths) > margin
        # pair family: (-t1, t1), +-(c2 -+ t2), |x| > c34 stay disjoint
        and t.condition_1_ghz + margin < c2 - t.condition_2_ghz
        and c2 + t.condition_2_ghz + margin < c34
        # spectator family: (-t5, t5) vs +-(c6 -+ t6)
        and t.condition_5_ghz + margin < c6 - t.condition_6_ghz
    )


def _interval_families(
    qubit_index: int,
    base: np.ndarray,
    pairs: np.ndarray,
    triples: np.ndarray,
    noise: np.ndarray,
    delta_ghz: float,
    thresholds: CollisionThresholds,
) -> Tuple[
    np.ndarray,
    List[Tuple[Tuple[float, float], ...]],
    Optional[np.ndarray],
]:
    """The region's deduplicated interval families and constant-event mask.

    Returns ``(shift_matrix, interval_lists, const_mask)``: column ``f``
    of the ``(trials, families)`` float64 shift matrix belongs to the
    family whose conditions are violated on trial ``t`` exactly when
    ``f_candidate - shift_matrix[t, f]`` lies in one of
    ``interval_lists[f]`` (constant, pairwise disjoint).  Families
    reached through several collision events — e.g. the
    spectator-difference conditions of two triples sharing the same
    spectator pair — are emitted once: duplicates change no union.
    All family shifts of one kind are computed as a single broadcast
    expression (one vectorized pass per kind instead of one numpy chain
    per family), with elementwise arithmetic identical to the per-family
    formulation.

    Open-ended tails (``|x| > c34`` and the far condition-6 band) are
    clamped to ``+-``:data:`CLAMP_GHZ` — far outside any candidate band,
    so no merge decision or candidate count changes — keeping the packed
    merge kernel free of non-finite arithmetic.

    The returned mask (or None) marks trials failing a *constant* event:
    spectator-spectator conditions of triples centred on the scanned
    qubit, which involve only assigned qubits and therefore fail the
    same trials for every candidate.  It is computed with the joint
    kernel's own arithmetic, so it is bit-exact, not epsilon-bounded.
    """
    t = thresholds
    c2 = -delta_ghz / 2.0
    c34 = -delta_ghz - t.condition_3_ghz
    c6 = -delta_ghz
    clamp = CLAMP_GHZ

    # Pair conditions 1-4 folded onto the signed difference axis x:
    # x in (-t1, t1) u +-(c2 -+ t2, c2 +- t2) u {|x| > c34}.  The set is
    # symmetric in x, so the scanned qubit's position in the pair (x =
    # +-(f - shift)) never matters.
    pair_intervals = (
        (-t.condition_1_ghz, t.condition_1_ghz),
        (c2 - t.condition_2_ghz, c2 + t.condition_2_ghz),
        (-c2 - t.condition_2_ghz, -c2 + t.condition_2_ghz),
        (c34, clamp),
        (-clamp, -c34),
    )
    # Triple conditions 5-6 on the spectator difference x = f_i - f_k
    # (also symmetric in x).
    spectator_intervals = (
        (-t.condition_5_ghz, t.condition_5_ghz),
        (c6 - t.condition_6_ghz, c6 + t.condition_6_ghz),
        (-c6 - t.condition_6_ghz, -c6 + t.condition_6_ghz),
    )
    c7_centre_intervals = ((-0.5 * t.condition_7_ghz, 0.5 * t.condition_7_ghz),)
    c7_spectator_intervals = ((-t.condition_7_ghz, t.condition_7_ghz),)

    q = int(qubit_index)
    # Group the deduplicated families by kind; each kind's shifts are one
    # broadcast expression over its member columns.
    difference_others: List[int] = []     # x = f + n_q - f_other^s ...
    difference_intervals: List[Tuple] = []  # ... against pair or spectator sets
    seen_pair = set()
    seen_spectator = set()
    centre_pairs: List[Tuple[int, int]] = []       # ("c7-centre", i, k)
    seen_centre = set()
    spectator_jo: List[Tuple[int, int]] = []       # ("c7-spectator", j, other)
    seen_spectator_jo = set()
    const_pairs: List[Tuple[int, int]] = []        # spectator-spectator events

    for a, b in pairs:
        other = int(b) if int(a) == q else int(a)
        # x = (f + noise_q) - (base_other + noise_other):
        # f - shift_t in interval  <=>  x in interval.
        if other not in seen_pair:
            seen_pair.add(other)
            difference_others.append(other)
            difference_intervals.append(pair_intervals)

    for j, i, k in triples:
        j, i, k = int(j), int(i), int(k)
        if q == j:
            # Conditions 5-6 involve only the two (assigned) spectators:
            # a constant event, evaluated with the kernel's arithmetic.
            const_pairs.append((i, k))
            # Condition 7: |2(f + n_j) + delta - f_i^s - f_k^s| < t7
            # <=>  f - shift_t in (-t7/2, t7/2).
            key = (min(i, k), max(i, k))
            if key not in seen_centre:
                seen_centre.add(key)
                centre_pairs.append((i, k))
        else:
            other = k if q == i else i
            # Spectator difference x = +-(f + noise_q - f_other^s).
            if other not in seen_spectator:
                seen_spectator.add(other)
                difference_others.append(other)
                difference_intervals.append(spectator_intervals)
            # Condition 7 with the scanned qubit as a spectator:
            # |2 f_j^s + delta - f_other^s - (f + n_q)| < t7
            # <=>  f - shift_t in (-t7, t7).
            if (j, other) not in seen_spectator_jo:
                seen_spectator_jo.add((j, other))
                spectator_jo.append((j, other))

    noise_q = noise[:, q]
    columns: List[np.ndarray] = []
    interval_lists: List[Tuple[Tuple[float, float], ...]] = []

    if difference_others:
        shifts = (
            base[difference_others][None, :] + noise[:, difference_others]
        ) - noise_q[:, None]
        columns.append(shifts)
        interval_lists.extend(difference_intervals)
    if centre_pairs:
        ii = [i for i, _ in centre_pairs]
        kk = [k for _, k in centre_pairs]
        shifts = 0.5 * (
            (base[ii] + base[kk] - delta_ghz)[None, :]
            + ((noise[:, ii] + noise[:, kk]) - 2.0 * noise_q[:, None])
        )
        columns.append(shifts)
        interval_lists.extend([c7_centre_intervals] * len(centre_pairs))
    if spectator_jo:
        jj = [j for j, _ in spectator_jo]
        oo = [o for _, o in spectator_jo]
        shifts = (
            (2.0 * base[jj] + delta_ghz - base[oo])[None, :]
            + ((2.0 * noise[:, jj] - noise[:, oo]) - noise_q[:, None])
        )
        columns.append(shifts)
        interval_lists.extend([c7_spectator_intervals] * len(spectator_jo))

    const_mask: Optional[np.ndarray] = None
    if const_pairs:
        ii = [i for i, _ in const_pairs]
        kk = [k for _, k in const_pairs]
        diff = np.abs((base[ii] - base[kk])[None, :] + (noise[:, ii] - noise[:, kk]))
        hit = diff < t.condition_5_ghz
        hit |= np.abs(diff - c6) < t.condition_6_ghz
        const_mask = hit.any(axis=1)

    if columns:
        shift_matrix = columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)
    else:
        shift_matrix = np.empty((noise.shape[0], 0), dtype=float)
    return shift_matrix, interval_lists, const_mask


def _single_family_counts(
    bins: CandidateBins,
    shifts: np.ndarray,
    intervals: Tuple[Tuple[float, float], ...],
    epsilon: float = SINGLE_FAMILY_EPSILON,
) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) counts for a region with one interval family.

    One family's intervals are pairwise disjoint, so its translated
    endpoint counts — all intervals batched into one broadcast and two
    binning passes — are the exact union count; no merge needed.  The
    arithmetic stays in float64, so the tight
    :data:`SINGLE_FAMILY_EPSILON` applies and the bounds pin the joint
    count for essentially every candidate.
    """
    xlo = np.array([pair[0] for pair in intervals])
    xhi = np.array([pair[1] for pair in intervals])
    lows = (shifts[:, None] + xlo[None, :]).ravel()
    highs = (shifts[:, None] + xhi[None, :]).ravel()
    upper, lower = bins.bound_counts(lows, highs, epsilon)
    # Narrowed counts of an empty narrowed interval cannot go negative
    # here (widths exceed 2 * epsilon by screening_applicable), but the
    # sum over intervals is clamped for symmetry with the merged path.
    np.maximum(lower, 0, out=lower)
    return lower.astype(np.int64), upper.astype(np.int64)


class _PreparedRegion:
    """One region's screen input after family building and band filtering."""

    __slots__ = ("events", "constant", "single", "lows", "highs")

    def __init__(self, events, constant, single, lows, highs):
        self.events = events          # family count incl. constant event
        self.constant = constant      # trials failing a constant event
        self.single = single          # (shifts, intervals) or None
        self.lows = lows              # (kept_trials, columns) float32 or None
        self.highs = highs


def _prepare_region(
    candidates: np.ndarray,
    qubit_index: int,
    base: np.ndarray,
    pairs: np.ndarray,
    triples: np.ndarray,
    noise: np.ndarray,
    delta_ghz: float,
    thresholds: CollisionThresholds,
    epsilon: float,
) -> _PreparedRegion:
    """Build one region's interval matrices, ready for the fused kernel."""
    shift_matrix, interval_lists, const_mask = _interval_families(
        qubit_index, base, pairs, triples, noise, delta_ghz, thresholds
    )
    events = len(interval_lists)

    constant = 0
    if const_mask is not None:
        events += 1
        constant = int(const_mask.sum())
        if constant:
            # Trials failing a candidate-independent event fail for every
            # candidate: count them once and keep only the rest, so the
            # interval unions never double-count them.
            shift_matrix = shift_matrix[~const_mask]

    # Drop interval columns no trial can land on a candidate: most
    # families carry carve-outs (the |x| > c34 tails, the far c6 band)
    # whose translates sit entirely outside the allowed frequency band,
    # and the merge pass is linear in the columns it has to sort.
    margin = 4.0 * epsilon
    band_lo = candidates[0] - margin if candidates.size else 0.0
    band_hi = candidates[-1] + margin if candidates.size else 0.0
    kept: List[Tuple[int, Tuple[Tuple[float, float], ...]]] = []
    if shift_matrix.shape[0] and shift_matrix.shape[1]:
        shift_min = shift_matrix.min(axis=0)
        shift_max = shift_matrix.max(axis=0)
        for column, intervals in enumerate(interval_lists):
            in_band = tuple(
                (xlo, xhi) for xlo, xhi in intervals
                if xlo + shift_min[column] < band_hi
                and xhi + shift_max[column] > band_lo
            )
            if in_band:
                kept.append((column, in_band))

    if not kept:
        return _PreparedRegion(events, constant, None, None, None)
    if len(kept) == 1:
        column, intervals = kept[0]
        return _PreparedRegion(
            events, constant, (shift_matrix[:, column], intervals), None, None
        )

    families: List[int] = []
    column_lo: List[float] = []
    column_hi: List[float] = []
    for column, intervals in kept:
        for xlo, xhi in intervals:
            families.append(column)
            column_lo.append(xlo)
            column_hi.append(xhi)
    family_of_column = np.array(families, dtype=np.intp)
    lo_offsets = np.array(column_lo, dtype=np.float32)
    hi_offsets = np.array(column_hi, dtype=np.float32)
    # Pre-order columns by the first trial's interval lows: rows differ
    # only by per-trial noise, so every row arrives nearly sorted and
    # the kernel's per-row sort runs at its adaptive best case.  Column
    # order is immaterial to the result — the kernel (and the scalar
    # reference) fully sorts the packed endpoints per row before merging.
    shift32 = shift_matrix.astype(np.float32)
    order = np.argsort(shift32[0, family_of_column] + lo_offsets, kind="stable")
    family_of_column = family_of_column[order]
    gathered = shift32[:, family_of_column]
    lows = gathered + lo_offsets[order][None, :]
    highs = gathered + hi_offsets[order][None, :]
    return _PreparedRegion(events, constant, None, lows, highs)


def screen_candidate_bounds_batch(
    candidates: np.ndarray,
    regions: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    delta_ghz: float,
    thresholds: CollisionThresholds,
    epsilon: float = SCREENING_EPSILON,
) -> Optional[List[ScreeningBounds]]:
    """Joint-count bounds for many local regions in one fused kernel call.

    The cross-qubit batched ranking path: every region shares the
    candidate grid, and all multi-family regions stack their interval
    matrices — rows tagged with a per-region slot, columns padded to a
    common width with :data:`~repro.collision.merge_kernel.SENTINEL`
    intervals that count nothing — into a single
    :func:`~repro.collision.merge_kernel.fused_union_bounds` invocation,
    amortizing kernel dispatch across a whole BFS frontier.  Each
    region's bounds are identical to its own
    :func:`screen_candidate_bounds` call: the per-slot merge never mixes
    rows of different regions.  Returns None when the C kernel declines
    the batch (no native library, a non-uniform grid, or a non-zero C
    status); callers then rank the batch directly.

    Args:
        candidates: Shared candidate frequencies, ascending.
        regions: Per scanned qubit: ``(qubit_index, base_frequencies,
            pairs, triples, noise)`` exactly as accepted by
            :func:`screen_candidate_bounds`.
        delta_ghz, thresholds, epsilon: As for
            :func:`screen_candidate_bounds`.
    """
    pack_started = time.perf_counter_ns()
    candidates = np.asarray(candidates, dtype=float)
    bins = candidate_bins(candidates)
    prepared = [
        _prepare_region(
            candidates, qubit_index, np.asarray(base, dtype=float),
            pairs, triples, noise, delta_ghz, thresholds, epsilon,
        )
        for qubit_index, base, pairs, triples, noise in regions
    ]

    merged = [region for region in prepared if region.lows is not None]
    slot_of: Dict[int, int] = {
        id(region): slot for slot, region in enumerate(merged)
    }
    lower_merged = upper_merged = None
    merge_ns = 0
    if merged:
        width = max(region.lows.shape[1] for region in merged)
        rows = sum(region.lows.shape[0] for region in merged)
        lows = np.empty((rows, width), dtype=np.float32)
        highs = np.empty((rows, width), dtype=np.float32)
        slots = np.empty(rows, dtype=np.int64)
        cursor = 0
        for slot, region in enumerate(merged):
            count, cols = region.lows.shape
            lows[cursor:cursor + count, :cols] = region.lows
            highs[cursor:cursor + count, :cols] = region.highs
            if cols < width:  # sentinel intervals sort last, count nothing
                lows[cursor:cursor + count, cols:] = SENTINEL
                highs[cursor:cursor + count, cols:] = SENTINEL
            slots[cursor:cursor + count] = slot
            cursor += count
        merge_started = time.perf_counter_ns()
        pack_ns = merge_started - pack_started
        fused = fused_union_bounds(lows, highs, slots, len(merged), bins, epsilon)
        if fused is None:
            return None
        lower_merged, upper_merged = fused
        merge_ns = time.perf_counter_ns() - merge_started
    else:
        pack_ns = time.perf_counter_ns() - pack_started

    results: List[ScreeningBounds] = []
    for region in prepared:
        if region.lows is not None:
            slot = slot_of[id(region)]
            lower = lower_merged[slot].copy()
            upper = upper_merged[slot].copy()
        elif region.single is not None:
            started = time.perf_counter_ns()
            shifts, intervals = region.single
            lower, upper = _single_family_counts(bins, shifts, intervals)
            merge_ns += time.perf_counter_ns() - started
        else:
            lower = np.zeros(candidates.shape[0], dtype=np.int64)
            upper = lower.copy()
        if region.constant:
            lower += region.constant
            upper += region.constant
        results.append(
            ScreeningBounds(lower=lower, upper=upper, events=region.events)
        )
    from repro.runtime.metrics import global_metrics

    metrics = global_metrics()
    metrics.observe("screening/pack", pack_ns * 1e-9)
    metrics.observe("screening/merge", merge_ns * 1e-9)
    return results


def screen_candidate_bounds(
    candidates: np.ndarray,
    qubit_index: int,
    base_frequencies: np.ndarray,
    pairs: np.ndarray,
    triples: np.ndarray,
    noise: np.ndarray,
    delta_ghz: float,
    thresholds: CollisionThresholds,
    epsilon: float = SCREENING_EPSILON,
) -> Optional[ScreeningBounds]:
    """Joint failed-trial count bounds for every candidate frequency.

    None when the C merge kernel declines the region (see
    :func:`screen_candidate_bounds_batch`).

    Args:
        candidates: Candidate frequencies of the scanned qubit, in
            ascending order (the allocator's grid and every subset of it).
        qubit_index: Column of the scanned qubit in the region arrays.
        base_frequencies: Designed frequencies of the region's qubits; the
            scanned qubit's own entry is ignored.
        pairs: ``(P, 2)`` connected pairs, as region column indices; every
            pair must contain ``qubit_index``.
        triples: ``(T, 3)`` collision triples ``(j, i, k)``, as region
            column indices; every triple must contain ``qubit_index``.
        noise: ``(trials, region_size)`` CRN fabrication-noise tensor —
            the same tensor the joint kernel verifies survivors with.
        delta_ghz: Qubit anharmonicity (must satisfy
            :func:`screening_applicable` together with ``thresholds``).
        thresholds: Collision thresholds.
        epsilon: Float-safety margin (see module docstring).
    """
    batch = screen_candidate_bounds_batch(
        candidates,
        [(qubit_index, base_frequencies, pairs, triples, noise)],
        delta_ghz, thresholds, epsilon,
    )
    return None if batch is None else batch[0]


def record_screening(
    candidates: int,
    exact: int,
    verified: int,
    pruned: int,
    *,
    calls: int = 1,
    dispute_ns: int = 0,
    joint_ns: int = 0,
) -> None:
    """Record one screened ranking (or batch of them) as ``screening/*`` metrics.

    The counts land in the structured metrics registry
    (:mod:`repro.runtime.metrics`) in one locked update, so
    ``--metrics-out`` reports prune fractions and the phase breakdown
    merged associatively across sweep workers.  The ``pack``/``merge``
    timers are observed at the kernel call site
    (:func:`screen_candidate_bounds_batch`); the decision/verification
    phases are timed by the caller and land here.
    """
    from repro.runtime.metrics import global_metrics

    metrics = global_metrics()
    metrics.increment_many({
        "screening/calls": calls,
        "screening/candidates": candidates,
        "screening/exact": exact,
        "screening/verified": verified,
        "screening/pruned": pruned,
    })
    # Wall-time phases ride the timer section: timers merge associatively
    # across workers exactly like counters, but are exempt from the
    # counter-delta determinism contract (wall time never repeats).
    metrics.observe("screening/dispute", dispute_ns * 1e-9)
    metrics.observe("screening/joint", joint_ns * 1e-9)
