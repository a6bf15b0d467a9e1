"""The C merge kernel behind the interval screening engine.

:mod:`repro.collision.screening` reduces every Algorithm 3 candidate
ranking to one computation: given each trial's violating intervals on
the candidate-frequency axis, count — for every candidate — the trials
whose interval *union* contains it, once with every interval widened by
the float-safety epsilon (an upper bound on the joint kernel's count)
and once narrowed by it (a lower bound).  The C function
``fused_union_bounds``, called through :func:`fused_union_bounds`, does
that in one pass per row:

* **In-band packing.**  Each interval becomes a single ``uint64``: the
  high 32 bits hold the low endpoint's float32 bits remapped to a
  sort-preserving unsigned key, the low 32 bits hold the high
  endpoint's raw float32 bits, so one sort orders a row by low
  endpoint.  Infinite interval tails are clamped by the caller to
  finite band sentinels (:data:`CLAMP_GHZ`), so the sweep never meets a
  non-finite value.
* **One sweep, both spaces.**  The widened and narrowed merges share
  the sorted order and the running maximum of high endpoints; their
  component boundaries differ only in the decision threshold on the
  low-vs-previous-high gap (``> +2 eps`` widened, ``> -2 eps``
  narrowed).  Both are decided in a single pass over the sorted row.
* **Slot batching.**  Rows carry a *slot* index (one slot per ranked
  qubit), and the per-candidate counting lands every component in a
  ``(space, slot, bin)`` segmented histogram — so one kernel invocation
  prices an entire BFS frontier of local regions.

The kernel is a small C library compiled once with the system ``cc``
into a module-local build directory and loaded through ``ctypes``; no
third-party dependency is ever required.  :func:`_python_union_bounds`
is the scalar reference (same float32 merge arithmetic, same float64
binning) the property suite pins it against; it is orders of magnitude
slower and never runs in a ranking.  The correctness argument (why the
two-threshold merge bounds the joint kernel's counts) lives in
:mod:`repro.collision.screening`.

``REPRO_SCREENING_BACKEND=native|numpy`` (default ``auto``: ``native``
when a C toolchain is available, ``numpy`` otherwise) picks the active
backend.  Algorithm 3 screens only under ``native``; under ``numpy``,
or when the kernel declines a batch (a non-uniform grid or a non-zero
C status), it ranks every candidate with the joint numpy kernel: a
vectorized numpy merge measured slower than that direct ranking, so
screening without the C kernel would not pay for itself.

The native library holds two more kernels: the SABRE routing pass
(``sabre_pass``, reached through :func:`native_sabre_pass`) and the
full-chip Monte Carlo survivor count (``chip_survivors``, reached
through :func:`native_chip_survivors`).  One loader builds all three
under one source digest, and the same switch selects them:
:class:`~repro.mapping.sabre.SabreRouter` routes in C and
:meth:`~repro.collision.yield_simulator.YieldSimulator.estimate_from_arrays`
counts survivors in C while ``native`` is the active backend, and both
run their Python/numpy reference otherwise, so
``REPRO_SCREENING_BACKEND`` and the supervisor's crash demotion to
``numpy`` govern routing and yield too.  The survivor count is declined
(the numpy loop counts instead) when a pair or triple index lies outside
``[0, n)``, where numpy wraps or raises, or an array is not C-contiguous
float64/int64.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import warnings
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import faults

#: Finite stand-ins for the infinite tails of open-ended intervals
#: (``|x| > c34`` and the far condition-6 band).  Candidate grids live
#: within a fraction of a GHz of the 5.0-5.34 GHz band and every finite
#: endpoint is within a few GHz of it, so clamping at +-1e4 GHz changes
#: no merge decision and no candidate count while keeping the packed
#: sweep free of inf/NaN arithmetic.
CLAMP_GHZ = 1.0e4

#: Per-row sentinel padding interval: sorts after every real interval,
#: merges only with other sentinels, and bins past the last candidate,
#: contributing exactly zero to every count.  Lets rows of different
#: interval counts share one rectangular matrix.
SENTINEL = np.float32(3.0e38)

_ENV_VAR = "REPRO_SCREENING_BACKEND"
_BACKENDS = ("numpy", "native")

_active_backend: Optional[str] = None
_native_lib: Optional[ctypes.CDLL] = None
_native_failed = False


def _count_fallback(name: str) -> None:
    """Count a silent backend degradation in the metrics registry.

    Lazy import: this module must stay importable with zero runtime-layer
    dependencies (the property suite loads it standalone), and the
    counters only matter on the cold degradation paths.
    """
    from repro.runtime.metrics import global_metrics

    global_metrics().increment(name)


class CandidateBins:
    """Maps interval endpoints to per-candidate membership counts.

    ``bound_counts`` returns ``#{j : lows[j] < f < highs[j]}`` for
    every candidate ``f`` of the (ascending) grid, once with every
    interval widened and once narrowed by an epsilon.  Valid for any
    interval collection with ``lows[j] < highs[j]`` (the identity
    ``[lo < f < hi] = [lo < f] - [hi <= f]`` holds per interval); when
    the intervals are pairwise disjoint within a trial, summing over a
    trial's intervals counts membership in their union.

    No endpoint is ever sorted: each lands in a candidate bin — by a
    multiply-floor on the uniform allocator grid, or one
    ``searchsorted`` against the few-dozen-entry grid otherwise — and a
    cumulative histogram turns bins into per-candidate counts.  The grid
    and the binning arithmetic stay in float64, so binning adds rounding
    far below even the single-family epsilon; float32 *endpoint* arrays
    (the merged path's matrices) are covered by the larger merged-path
    epsilon their callers use.  Exact grid/endpoint coincidences
    therefore always stay inside the widened/narrowed uncertainty the
    caller accounts for.
    """

    def __init__(self, candidates: np.ndarray) -> None:
        self.num = candidates.shape[0]
        self.candidates = np.asarray(candidates, dtype=float)
        steps = np.diff(self.candidates)
        self.uniform = steps.size > 0 and bool(
            (np.abs(steps - steps[0]) < 1e-9 * max(1.0, abs(steps[0]))).all()
        )
        if self.uniform:
            self.origin = float(self.candidates[0])
            self.inverse_step = float(1.0 / steps[0])

    def start_bins(self, lows: np.ndarray) -> np.ndarray:
        """Per endpoint: the first candidate index with ``f > lo``."""
        if not self.uniform:
            return np.searchsorted(self.candidates, lows, side="right")
        raw = np.floor((lows - self.origin) * self.inverse_step) + 1.0
        return np.clip(raw, 0, self.num).astype(np.int64)

    def end_bins(self, highs: np.ndarray) -> np.ndarray:
        """Per endpoint: the first candidate index with ``f >= hi``."""
        if not self.uniform:
            return np.searchsorted(self.candidates, highs, side="left")
        raw = np.ceil((highs - self.origin) * self.inverse_step)
        return np.clip(raw, 0, self.num).astype(np.int64)

    def bound_counts(
        self, lows: np.ndarray, highs: np.ndarray, epsilon
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(upper, lower) membership counts of intervals widened and
        narrowed by ``epsilon``, in one fused binning pass (the widened
        and narrowed endpoint arrays share segmented histograms)."""
        num = self.num
        size = lows.shape[0]
        start_bins = self.start_bins(np.concatenate((lows - epsilon, lows + epsilon)))
        end_bins = self.end_bins(np.concatenate((highs + epsilon, highs - epsilon)))
        start_bins[size:] += num + 1
        end_bins[size:] += num + 1
        started = np.bincount(
            start_bins, minlength=2 * (num + 1)
        ).reshape(2, num + 1)[:, :num].cumsum(axis=1)
        ended = np.bincount(
            end_bins, minlength=2 * (num + 1)
        ).reshape(2, num + 1)[:, :num].cumsum(axis=1)
        diff = started - ended
        return diff[0], diff[1]


#: Bounded memo of :class:`CandidateBins` by grid content.  Every ranking
#: of one allocation shares a grid, and whole sweeps share a handful of
#: grids, so the uniformity check and float64 copy run once per grid
#: instead of once per ranking.
_BINS_MEMO: Dict[bytes, CandidateBins] = {}
_BINS_MEMO_LIMIT = 64


def candidate_bins(candidates: np.ndarray) -> CandidateBins:
    """The (memoized) :class:`CandidateBins` for one candidate grid."""
    key = np.ascontiguousarray(candidates).tobytes()
    bins = _BINS_MEMO.get(key)
    if bins is None:
        bins = CandidateBins(candidates)
        while len(_BINS_MEMO) >= _BINS_MEMO_LIMIT:
            _BINS_MEMO.pop(next(iter(_BINS_MEMO)))
        _BINS_MEMO[key] = bins
    return bins


# ---------------------------------------------------------------------------
# In-band packing: (low, high) -> one sortable uint64 per interval.
# ---------------------------------------------------------------------------


def _sortable_keys(values: np.ndarray) -> np.ndarray:
    """Float32 bit patterns remapped so unsigned order == float order.

    The standard IEEE-754 trick: flip the sign bit of non-negative
    floats, complement the bits of negative ones.  Exact and invertible
    (:func:`_keys_to_floats`), so sorting packed integers sorts by the
    original float32 low endpoints with zero rounding.  Branchless: the
    arithmetic shift spreads the sign bit into an all-ones xor mask for
    negatives, leaving just the sign flip for non-negatives.
    """
    bits = values.view(np.uint32)
    mask = (values.view(np.int32) >> 31).view(np.uint32)
    return bits ^ (mask | np.uint32(0x80000000))


def _keys_to_floats(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_sortable_keys` (same branchless shape)."""
    mask = (keys.view(np.int32) >> 31).view(np.uint32)
    return (keys ^ (~mask | np.uint32(0x80000000))).view(np.float32)


#: uint32 views of a uint64 word are position-dependent: the sort key
#: must land in the numerically-high half.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0


def pack_intervals(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Pack float32 ``(lows, highs)`` matrices into one uint64 matrix.

    High 32 bits: the low endpoint's sortable key (primary sort key).
    Low 32 bits: the high endpoint's raw bits (an arbitrary but
    deterministic tie-break; equal-low intervals merge identically in
    any order because the sweep only reads the running maximum).

    Written through a uint32 view of the uint64 buffer — two plain
    stores instead of widening casts, shifts, and an or.
    """
    lows = np.ascontiguousarray(lows, dtype=np.float32)
    highs = np.ascontiguousarray(highs, dtype=np.float32)
    packed = np.empty(lows.shape, dtype=np.uint64)
    words = packed.view(np.uint32).reshape(lows.shape + (2,))
    words[..., _HIGH_WORD] = _sortable_keys(lows)
    words[..., 1 - _HIGH_WORD] = highs.view(np.uint32)
    return packed


def unpack_intervals(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recover the float32 ``(lows, highs)`` matrices from packed form."""
    words = packed.view(np.uint32).reshape(packed.shape + (2,))
    lows = _keys_to_floats(np.ascontiguousarray(words[..., _HIGH_WORD]))
    highs = np.ascontiguousarray(words[..., 1 - _HIGH_WORD]).view(np.float32)
    return lows, highs


# ---------------------------------------------------------------------------
# The scalar reference: the C kernel's contract in plain Python.
# ---------------------------------------------------------------------------


def _python_union_bounds(
    lows: np.ndarray,
    highs: np.ndarray,
    slots: np.ndarray,
    num_slots: int,
    bins: CandidateBins,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray]:
    rows, cols = lows.shape
    num = bins.num
    lower = np.zeros((num_slots, num), dtype=np.int64)
    upper = np.zeros((num_slots, num), dtype=np.int64)
    eps32 = np.float32(epsilon)
    two_eps = np.float32(2.0) * eps32
    packed_rows = pack_intervals(lows, highs)

    def add_component(out, slot, low, high, widen):
        low64 = float(low) - epsilon if widen else float(low) + epsilon
        high64 = float(high) + epsilon if widen else float(high) - epsilon
        start = int(bins.start_bins(np.array([low64]))[0])
        end = int(bins.end_bins(np.array([high64]))[0])
        # Mirror the kernel's histogram difference exactly, including
        # collapsed components whose counting identity goes negative
        # before the final clamp (e.g. a narrowed sliver).
        if start < end:
            out[slot, start:end] += 1
        elif end < start:
            out[slot, end:start] -= 1

    for row in range(rows):
        slot = int(slots[row])
        ordered = np.sort(packed_rows[row])
        row_lows, row_highs = unpack_intervals(ordered)
        running_max = row_highs[0]
        open_w = open_n = (row_lows[0], running_max)
        for col in range(1, cols):
            low = row_lows[col]
            gap = np.float32(low) - np.float32(running_max)
            if gap > two_eps:
                add_component(upper, slot, open_w[0], running_max, True)
                open_w = (low, None)
            if gap > -two_eps:
                add_component(lower, slot, open_n[0], running_max, False)
                open_n = (low, None)
            running_max = max(running_max, row_highs[col])
        add_component(upper, slot, open_w[0], running_max, True)
        add_component(lower, slot, open_n[0], running_max, False)
    np.maximum(lower, 0, out=lower)
    return lower, upper


# ---------------------------------------------------------------------------
# The native backend: one C pass per row, compiled on demand behind cc.
# ---------------------------------------------------------------------------

_MERGE_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <pthread.h>
#include <unistd.h>

/* Sort-preserving unsigned remap of float32 bits (see _sortable_keys). */
static inline uint32_t sortable_key(float value) {
    uint32_t bits;
    memcpy(&bits, &value, 4);
    return (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
}

static inline float key_to_float(uint32_t key) {
    uint32_t bits = (key & 0x80000000u) ? (key & 0x7FFFFFFFu) : ~key;
    float value;
    memcpy(&value, &bits, 4);
    return value;
}

static inline float high_of(uint64_t packed) {
    uint32_t bits = (uint32_t)(packed & 0xFFFFFFFFu);
    float value;
    memcpy(&value, &bits, 4);
    return value;
}

static inline uint32_t float_bits(float value) {
    uint32_t bits;
    memcpy(&bits, &value, 4);
    return bits;
}

static inline int64_t clip_bin(double raw, int64_t num) {
    if (!(raw > 0.0)) return 0;           /* also catches NaN */
    if (raw > (double)num) return num;
    return (int64_t)raw;
}

/* Diff-array update for one merged component: counts[start..end) += 1
   via counts[start] += 1, counts[end] -= 1 (prefix-summed at the end).
   Matches the histogram-difference arithmetic of the scalar reference,
   including negative narrowed spans before the final clamp. */
static inline void add_component(
    int64_t *diff, double lo, double hi,
    double origin, double inv_step, int64_t num
) {
    int64_t start = clip_bin(floor((lo - origin) * inv_step) + 1.0, num);
    int64_t end = clip_bin(ceil((hi - origin) * inv_step), num);
    diff[start] += 1;
    diff[end] -= 1;
}

/* One worker's slice of rows, accumulating into a private diff buffer.
   Row order within a slice and slice boundaries never change the
   result: every update is an exact int64 increment, and integer
   addition is associative, so any partition sums to the same counts. */
typedef struct {
    const float *lows;
    const float *highs;
    const int64_t *slots;
    int64_t row_start, row_end, cols, num_slots, stride, num;
    double origin, inv_step, epsilon;
    int64_t *diff;   /* (2 * num_slots, stride), private to this worker */
    int failed;
} merge_task;

static void *merge_rows(void *arg) {
    merge_task *task = (merge_task *)arg;
    int64_t cols = task->cols;
    uint64_t *packed = (uint64_t *)malloc((size_t)cols * sizeof(uint64_t));
    if (!packed) { task->failed = 1; return NULL; }
    double origin = task->origin, inv_step = task->inv_step;
    double epsilon = task->epsilon;
    int64_t num = task->num, stride = task->stride;
    float two_eps = 2.0f * (float)epsilon;

    for (int64_t row = task->row_start; row < task->row_end; row++) {
        const float *row_lows = task->lows + row * cols;
        const float *row_highs = task->highs + row * cols;
        int64_t *upper_diff = task->diff + task->slots[row] * stride;
        int64_t *lower_diff =
            task->diff + (task->num_slots + task->slots[row]) * stride;
        for (int64_t col = 0; col < cols; col++) {
            packed[col] = ((uint64_t)sortable_key(row_lows[col]) << 32)
                        | (uint64_t)float_bits(row_highs[col]);
        }
        /* Insertion sort: rows are a few dozen intervals, mostly in
           near-sorted family order, where this beats qsort dispatch. */
        for (int64_t i = 1; i < cols; i++) {
            uint64_t value = packed[i];
            int64_t j = i - 1;
            while (j >= 0 && packed[j] > value) {
                packed[j + 1] = packed[j];
                j--;
            }
            packed[j + 1] = value;
        }
        float running_max = high_of(packed[0]);
        float open_w = key_to_float((uint32_t)(packed[0] >> 32));
        float open_n = open_w;
        for (int64_t col = 1; col < cols; col++) {
            float low = key_to_float((uint32_t)(packed[col] >> 32));
            float gap = low - running_max;
            if (gap > two_eps) {
                add_component(upper_diff, (double)open_w - epsilon,
                              (double)running_max + epsilon,
                              origin, inv_step, num);
                open_w = low;
            }
            if (gap > -two_eps) {
                add_component(lower_diff, (double)open_n + epsilon,
                              (double)running_max - epsilon,
                              origin, inv_step, num);
                open_n = low;
            }
            float high = high_of(packed[col]);
            if (high > running_max) running_max = high;
        }
        add_component(upper_diff, (double)open_w - epsilon,
                      (double)running_max + epsilon, origin, inv_step, num);
        add_component(lower_diff, (double)open_n + epsilon,
                      (double)running_max - epsilon, origin, inv_step, num);
    }
    free(packed);
    return NULL;
}

static int64_t thread_budget(int64_t rows) {
    const char *env = getenv("REPRO_SCREENING_THREADS");
    long want = 0;
    if (env && env[0]) want = strtol(env, NULL, 10);
    if (want <= 0) {
        long nproc = sysconf(_SC_NPROCESSORS_ONLN);
        want = nproc > 0 ? nproc : 1;
    }
    if (want > 16) want = 16;
    /* Spawning costs ~50us/thread; keep slices >= 512 rows. */
    int64_t by_rows = rows / 512;
    if (want > by_rows) want = by_rows;
    return want > 1 ? want : 1;
}

int fused_union_bounds(
    const float *lows, const float *highs,
    int64_t rows, int64_t cols,
    const int64_t *slots, int64_t num_slots,
    double origin, double inv_step, int64_t num,
    double epsilon,
    int64_t *lower, int64_t *upper   /* (num_slots, num), zeroed */
) {
    /* One diff row per (space, slot), prefix-summed into the outputs. */
    int64_t stride = num + 1;
    size_t diff_len = (size_t)(2 * num_slots) * (size_t)stride;
    int64_t nthreads = thread_budget(rows);
    merge_task tasks[16];
    pthread_t threads[16];
    int spawned[16] = {0};
    int failed = 0;
    for (int64_t t = 0; t < nthreads; t++) {
        tasks[t].lows = lows; tasks[t].highs = highs; tasks[t].slots = slots;
        tasks[t].row_start = rows * t / nthreads;
        tasks[t].row_end = rows * (t + 1) / nthreads;
        tasks[t].cols = cols; tasks[t].num_slots = num_slots;
        tasks[t].stride = stride; tasks[t].num = num;
        tasks[t].origin = origin; tasks[t].inv_step = inv_step;
        tasks[t].epsilon = epsilon;
        tasks[t].failed = 0;
        tasks[t].diff = (int64_t *)calloc(diff_len, sizeof(int64_t));
        if (!tasks[t].diff) failed = 1;
    }
    if (!failed) {
        for (int64_t t = 1; t < nthreads; t++) {
            spawned[t] = pthread_create(&threads[t], NULL, merge_rows,
                                        &tasks[t]) == 0;
        }
        merge_rows(&tasks[0]);
        for (int64_t t = 1; t < nthreads; t++) {
            if (spawned[t]) pthread_join(threads[t], NULL);
            else merge_rows(&tasks[t]);  /* degrade to inline, same result */
        }
        for (int64_t t = 0; t < nthreads; t++) failed |= tasks[t].failed;
    }
    if (!failed) {
        /* Fold worker buffers in worker order (exact int64 sums), then
           prefix-sum into the outputs. */
        int64_t *diff = tasks[0].diff;
        for (int64_t t = 1; t < nthreads; t++) {
            for (size_t i = 0; i < diff_len; i++) diff[i] += tasks[t].diff[i];
        }
        for (int64_t slot = 0; slot < num_slots; slot++) {
            int64_t *upper_diff = diff + slot * stride;
            int64_t *lower_diff = diff + (num_slots + slot) * stride;
            int64_t upper_run = 0, lower_run = 0;
            for (int64_t c = 0; c < num; c++) {
                upper_run += upper_diff[c];
                lower_run += lower_diff[c];
                upper[slot * num + c] = upper_run;
                lower[slot * num + c] = lower_run > 0 ? lower_run : 0;
            }
        }
    }
    for (int64_t t = 0; t < nthreads; t++) free(tasks[t].diff);
    return failed;
}
"""

#: One SABRE routing pass, an exact transliteration of
#: ``repro.mapping.sabre.SabreRouter._python_pass`` (see that module for
#: the algorithm and ``SabreRouter._native_pass`` for the array layout).
#: Distances are small integers held in doubles, so every cost sum is
#: exact; the score keeps the Python expression order, and
#: ``-ffp-contract=off`` keeps it from being fused, so equal scores tie
#: exactly as they do in Python.
_SABRE_SOURCE = r"""
enum { SABRE_OK = 0, SABRE_OVERFLOW = 1, SABRE_FAILED = 2 };

static void sort_small(int32_t *values, int64_t count) {
    for (int64_t i = 1; i < count; i++) {
        int32_t value = values[i];
        int64_t j = i - 1;
        while (j >= 0 && values[j] > value) {
            values[j + 1] = values[j];
            j--;
        }
        values[j + 1] = value;
    }
}

/* Partner lists (the other operand of each gate in nodes) as CSR keyed
   by logical, in node order like repro.mapping.sabre._partners. */
static void build_partners(
    const int32_t *nodes, int64_t count, const int32_t *qa, const int32_t *qb,
    int64_t num_qubits, int32_t *start, int32_t *cursor, int32_t *items
) {
    memset(start, 0, (size_t)(num_qubits + 1) * sizeof(int32_t));
    for (int64_t i = 0; i < count; i++) {
        start[qa[nodes[i]] + 1]++;
        start[qb[nodes[i]] + 1]++;
    }
    for (int64_t l = 0; l < num_qubits; l++) start[l + 1] += start[l];
    memcpy(cursor, start, (size_t)num_qubits * sizeof(int32_t));
    for (int64_t i = 0; i < count; i++) {
        int32_t a = qa[nodes[i]], b = qb[nodes[i]];
        items[cursor[a]++] = b;
        items[cursor[b]++] = a;
    }
}

typedef struct {
    const int64_t *physical;
    const int32_t *key_logical;
    int32_t *pos, *occupant;
    int64_t *events;
    int64_t capacity, length;
    int record;
} sabre_state;

/* The logical at an index when it is a circuit logical, else -1. */
static inline int32_t logical_at(const sabre_state *s, int32_t index) {
    int32_t key = s->occupant[index];
    return key < 0 ? -1 : s->key_logical[key];
}

static inline void record_event(sabre_state *s, int64_t event) {
    if (s->length < s->capacity) s->events[s->length] = event;
    s->length++;
}

static void apply_swap(sabre_state *s, int32_t index_a, int32_t index_b) {
    int32_t key_a = s->occupant[index_a], key_b = s->occupant[index_b];
    s->occupant[index_a] = key_b;
    s->occupant[index_b] = key_a;
    if (key_a >= 0 && s->key_logical[key_a] >= 0) s->pos[s->key_logical[key_a]] = index_b;
    if (key_b >= 0 && s->key_logical[key_b] >= 0) s->pos[s->key_logical[key_b]] = index_a;
    if (s->record) {
        record_event(s, ~s->physical[index_a]);
        record_event(s, ~s->physical[index_b]);
    }
}

int sabre_pass(
    /* router: distances, coupling edges, CSR edges per index, CSR
       ascending-id neighbours per index, physical id per index */
    int64_t positions, const double *dist,
    int64_t num_edges, const int32_t *edge_a, const int32_t *edge_b,
    const int32_t *edges_at_start, const int32_t *edges_at,
    const int32_t *neighbor_start, const int32_t *neighbors,
    const int64_t *physical,
    /* pack: operands (-1 unless two-qubit), CSR successors, predecessor
       counts, sorted initial front */
    int64_t size, int64_t num_qubits, int64_t num_nodes,
    const int32_t *qa, const int32_t *qb,
    const int32_t *succ_start, const int32_t *succ, const int32_t *num_preds,
    const int32_t *front, int64_t front_len,
    /* parameters */
    int64_t extended_set_size, double weight, double decay_factor,
    int64_t decay_reset_interval, int64_t swap_budget, int64_t stall_threshold,
    /* mapping (in/out): index of each circuit logical, mapping-key index
       at each position (-1 when free), circuit logical of each key (-1
       for extra keys) */
    int32_t *pos, int32_t *occupant, const int32_t *key_logical,
    /* event log; record == 0 skips it */
    int record, int64_t *events, int64_t capacity,
    int64_t *out   /* [num_swaps, event count] */
) {
    int64_t depth = extended_set_size > 0 ? extended_set_size : 0;
    if (depth > size) depth = size;
    /* Each node enters the execute queue and the BFS queue at most once
       per walk, so every node-indexed buffer holds size entries. */
    size_t words = (size_t)(7 * size + 3 * depth + 3 * num_qubits + 2 + num_edges);
    int32_t *block = (int32_t *)calloc(words, sizeof(int32_t));
    double *decay = (double *)malloc((size_t)(positions + 1) * sizeof(double));
    if (!block || !decay) { free(block); free(decay); return SABRE_FAILED; }
    int32_t *remaining = block;
    int32_t *queue = remaining + size;
    int32_t *blocked = queue + size;
    int32_t *visited = blocked + size;       /* BFS stamps */
    int32_t *bfs = visited + size;
    int32_t *extended = bfs + size;
    int32_t *front_start = extended + depth;
    int32_t *ext_start = front_start + (num_qubits + 1);
    int32_t *cursor = ext_start + (num_qubits + 1);
    int32_t *front_items = cursor + num_qubits;
    int32_t *ext_items = front_items + 2 * size;
    int32_t *edge_mark = ext_items + 2 * depth;

    sabre_state s = {physical, key_logical, pos, occupant,
                     events, record ? capacity : 0, 0, record};
    for (int64_t i = 0; i < size; i++) remaining[i] = num_preds[i];
    for (int64_t i = 0; i < positions; i++) decay[i] = 1.0;
    int64_t blocked_len = front_len;
    memcpy(blocked, front, (size_t)front_len * sizeof(int32_t));
    int64_t pending = num_nodes;
    int64_t num_swaps = 0, since_reset = 0, since_progress = 0;
    int32_t stamp = 0, edge_stamp = 0;
    int status = SABRE_OK;

    for (;;) {
        /* Execute everything executable, walking the sorted front and
           the nodes it unblocks; what stays blocked is the next front. */
        int64_t head = 0, tail = blocked_len;
        memcpy(queue, blocked, (size_t)blocked_len * sizeof(int32_t));
        blocked_len = 0;
        while (head < tail) {
            int32_t node = queue[head++];
            int32_t a = qa[node];
            if (a >= 0 && dist[(int64_t)pos[a] * positions + pos[qb[node]]] != 1.0) {
                blocked[blocked_len++] = node;
                continue;
            }
            if (record) record_event(&s, node);
            pending--;
            for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                int32_t next = succ[k];
                if (!--remaining[next]) queue[tail++] = next;
            }
        }
        if (!pending) break;
        sort_small(blocked, blocked_len);

        /* The extended set: BFS from the sorted front's successors, cut
           after depth two-qubit nodes. */
        int64_t ext_len = 0;
        if (depth > 0) {
            stamp++;
            int64_t bhead = 0, btail = 0;
            for (int64_t i = 0; i < blocked_len; i++) {
                int32_t node = blocked[i];
                for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                    int32_t next = succ[k];
                    if (visited[next] != stamp) { visited[next] = stamp; bfs[btail++] = next; }
                }
            }
            while (bhead < btail) {
                int32_t node = bfs[bhead++];
                if (qa[node] >= 0) {
                    extended[ext_len++] = node;
                    if (ext_len >= depth) break;
                }
                for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                    int32_t next = succ[k];
                    if (visited[next] != stamp) { visited[next] = stamp; bfs[btail++] = next; }
                }
            }
        }
        build_partners(blocked, blocked_len, qa, qb, num_qubits,
                       front_start, cursor, front_items);
        build_partners(extended, ext_len, qa, qb, num_qubits,
                       ext_start, cursor, ext_items);
        double base_front = 0.0, base_extended = 0.0;
        for (int64_t i = 0; i < blocked_len; i++) {
            int32_t node = blocked[i];
            base_front += dist[(int64_t)pos[qa[node]] * positions + pos[qb[node]]];
        }
        for (int64_t i = 0; i < ext_len; i++) {
            int32_t node = extended[i];
            base_extended += dist[(int64_t)pos[qa[node]] * positions + pos[qb[node]]];
        }
        int64_t front_div = blocked_len > 1 ? blocked_len : 1;

        for (;;) {
            if (since_progress >= stall_threshold) {
                /* Livelock escape: walk the first blocked gate's operands
                   together, stepping to the lowest-id closer neighbour. */
                int32_t la = qa[blocked[0]], lb = qb[blocked[0]];
                for (;;) {
                    int32_t ia = pos[la], ib = pos[lb];
                    double current = dist[(int64_t)ia * positions + ib];
                    if (current <= 1.0) break;
                    int32_t step = -1;
                    for (int32_t k = neighbor_start[ia]; k < neighbor_start[ia + 1]; k++) {
                        if (dist[(int64_t)neighbors[k] * positions + ib] < current) {
                            step = neighbors[k];
                            break;
                        }
                    }
                    if (step < 0) { status = SABRE_FAILED; goto done; }
                    apply_swap(&s, ia, step);
                    num_swaps++;
                }
                since_progress = 0;
                break;
            }

            /* Candidates: every edge at a front logical, ascending id. */
            edge_stamp++;
            for (int64_t l = 0; l < num_qubits; l++) {
                if (front_start[l] == front_start[l + 1]) continue;
                int32_t at = pos[l];
                for (int32_t k = edges_at_start[at]; k < edges_at_start[at + 1]; k++) {
                    edge_mark[edges_at[k]] = edge_stamp;
                }
            }
            int found = 0, found_improving = 0;
            double best_score = 0.0, best_improving_score = 0.0;
            int32_t best_a = 0, best_b = 0, improving_a = 0, improving_b = 0;
            double best_df = 0.0, best_de = 0.0, improving_df = 0.0, improving_de = 0.0;
            for (int64_t e = 0; e < num_edges; e++) {
                if (edge_mark[e] != edge_stamp) continue;
                int32_t ia = edge_a[e], ib = edge_b[e];
                const double *row_a = dist + (int64_t)ia * positions;
                const double *row_b = dist + (int64_t)ib * positions;
                int32_t la = logical_at(&s, ia), lb = logical_at(&s, ib);
                double df = 0.0, de = 0.0;
                if (la >= 0) {
                    for (int32_t k = front_start[la]; k < front_start[la + 1]; k++) {
                        int32_t partner = front_items[k];
                        if (partner != lb) { int32_t at = pos[partner]; df += row_b[at] - row_a[at]; }
                    }
                }
                if (lb >= 0) {
                    for (int32_t k = front_start[lb]; k < front_start[lb + 1]; k++) {
                        int32_t partner = front_items[k];
                        if (partner != la) { int32_t at = pos[partner]; df += row_a[at] - row_b[at]; }
                    }
                }
                if (la >= 0) {
                    for (int32_t k = ext_start[la]; k < ext_start[la + 1]; k++) {
                        int32_t partner = ext_items[k];
                        if (partner != lb) { int32_t at = pos[partner]; de += row_b[at] - row_a[at]; }
                    }
                }
                if (lb >= 0) {
                    for (int32_t k = ext_start[lb]; k < ext_start[lb + 1]; k++) {
                        int32_t partner = ext_items[k];
                        if (partner != la) { int32_t at = pos[partner]; de += row_a[at] - row_b[at]; }
                    }
                }
                double score = (base_front + df) / (double)front_div;
                if (ext_len) score += weight * (base_extended + de) / (double)ext_len;
                double decay_a = decay[ia], decay_b = decay[ib];
                score *= decay_a >= decay_b ? decay_a : decay_b;
                if (!found || score < best_score) {
                    found = 1; best_score = score;
                    best_a = ia; best_b = ib; best_df = df; best_de = de;
                }
                if (df < 0.0 && (!found_improving || score < best_improving_score)) {
                    found_improving = 1; best_improving_score = score;
                    improving_a = ia; improving_b = ib; improving_df = df; improving_de = de;
                }
            }
            if (!found) { status = SABRE_FAILED; goto done; }
            if (found_improving) {
                best_a = improving_a; best_b = improving_b;
                best_df = improving_df; best_de = improving_de;
            }
            base_front += best_df;
            base_extended += best_de;
            apply_swap(&s, best_a, best_b);
            num_swaps++;
            since_reset++;
            since_progress++;
            decay[best_a] += decay_factor;
            decay[best_b] += decay_factor;
            if (since_reset >= decay_reset_interval) {
                for (int64_t i = 0; i < positions; i++) decay[i] = 1.0;
                since_reset = 0;
            }
            if (num_swaps > swap_budget) { status = SABRE_FAILED; goto done; }
            /* Progress: a blocked gate of a moved logical became adjacent. */
            int progressed = 0;
            int32_t moved[2] = {logical_at(&s, best_a), logical_at(&s, best_b)};
            for (int m = 0; m < 2 && !progressed; m++) {
                int32_t logical = moved[m];
                if (logical < 0) continue;
                for (int32_t k = front_start[logical]; k < front_start[logical + 1]; k++) {
                    int32_t partner = front_items[k];
                    if (dist[(int64_t)pos[logical] * positions + pos[partner]] == 1.0) {
                        progressed = 1;
                        break;
                    }
                }
            }
            if (progressed) { since_progress = 0; break; }
        }
    }
    if (s.length > s.capacity) status = SABRE_OVERFLOW;
done:
    out[0] = num_swaps;
    out[1] = s.length;
    free(block);
    free(decay);
    return status;
}
"""


#: The full-chip Monte Carlo survivor count of
#: ``repro.collision.yield_simulator.YieldSimulator.estimate_from_arrays``.
#: Each comparison mirrors ``pair_collision_mask``/``triple_collision_mask``
#: operation for operation (``f[j] + noise[t, j]`` first, then the same
#: subtractions, sums and negations in the same order), and
#: ``-ffp-contract=off`` keeps them unfused, so every comparison sees the
#: doubles numpy sees; NaN compares false on both sides.
_SURVIVORS_SOURCE = r"""
/* Trials of the (trials, n) noise tensor on which no pair triggers
   conditions 1-4 and no triple (j; i, k) conditions 5-7; each trial
   stops at its first failing connection.  Every index must lie in
   [0, n); the caller checks. */
int64_t chip_survivors(
    const double *freq, const double *noise, int64_t trials, int64_t n,
    const int64_t *pairs, int64_t num_pairs,
    const int64_t *triples, int64_t num_triples,
    double delta, double t1, double t2, double t3,
    double t5, double t6, double t7   /* condition 4 has no threshold */
) {
    double half = delta / 2.0;
    int64_t survivors = 0;
    for (int64_t t = 0; t < trials; t++) {
        const double *row = noise + t * n;
        int failed = 0;
        for (int64_t p = 0; p < num_pairs && !failed; p++) {
            int64_t j = pairs[2 * p], k = pairs[2 * p + 1];
            double fj = freq[j] + row[j];
            double fk = freq[k] + row[k];
            double diff = fj - fk;
            failed = fabs(diff) < t1
                || fabs(diff + half) < t2 || fabs(-diff + half) < t2
                || fabs(diff + delta) < t3 || fabs(-diff + delta) < t3
                || fj > fk - delta || fk > fj - delta;
        }
        for (int64_t p = 0; p < num_triples && !failed; p++) {
            int64_t j = triples[3 * p], i = triples[3 * p + 1], k = triples[3 * p + 2];
            double fj = freq[j] + row[j];
            double fi = freq[i] + row[i];
            double fk = freq[k] + row[k];
            failed = fabs(fi - fk) < t5
                || fabs(fi - fk + delta) < t6 || fabs(fk - fi + delta) < t6
                || fabs(2.0 * fj + delta - (fk + fi)) < t7;
        }
        survivors += !failed;
    }
    return survivors;
}
"""


#: The three kernels live in one shared object, compiled and cached under
#: one source digest.
_NATIVE_SOURCE = _MERGE_SOURCE + _SABRE_SOURCE + _SURVIVORS_SOURCE

_POINTER = ctypes.c_void_p
_I64 = ctypes.c_int64
#: ``sabre_pass`` argument types, grouped like its C signature.
_SABRE_ARGTYPES = [
    # router tables
    _I64, _POINTER, _I64, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER,
    _POINTER,
    # pack
    _I64, _I64, _I64, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _I64,
    # parameters
    _I64, ctypes.c_double, ctypes.c_double, _I64, _I64, _I64,
    # mapping
    _POINTER, _POINTER, _POINTER,
    # event log and results
    ctypes.c_int, _POINTER, _I64, _POINTER,
]
#: ``chip_survivors`` argument types: frequencies, noise, trials, qubits,
#: pairs, triples, then delta and the six thresholds.
_SURVIVORS_ARGTYPES = [
    _POINTER, _POINTER, _I64, _I64, _POINTER, _I64, _POINTER, _I64,
    *[ctypes.c_double] * 7,
]


def _build_native() -> Optional[ctypes.CDLL]:
    """Compile and load the C library; None when no toolchain cooperates.

    The shared object is cached in a module-local ``_native`` directory
    keyed by source digest, so each machine compiles at most once per
    kernel version.  Every failure mode (no compiler, sandboxed build
    dir, missing ctypes symbols) degrades to the numpy backend.
    """
    global _native_failed
    if _native_failed:
        return None
    try:
        digest = hashlib.sha256(_NATIVE_SOURCE.encode()).hexdigest()[:16]
        build_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native")
        library = os.path.join(build_dir, f"repro_native_{digest}.so")
        if not os.path.exists(library):
            os.makedirs(build_dir, exist_ok=True)
            source = os.path.join(build_dir, f"repro_native_{digest}.c")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(_NATIVE_SOURCE)
            # -ffp-contract=off: the binning arithmetic must round every
            # intermediate exactly like numpy's, and the routing score
            # exactly like Python's — FMA contraction (the gcc default at
            # -O3 on FMA-baseline targets) could shift a floor() result
            # or a score tie and break cross-backend identity.  Tuned
            # -march=native first; plain -O3 for compilers without it.
            flag_sets = (
                ["-O3", "-march=native", "-ffp-contract=off"],
                # No bare -O3 fallback: a compiler that cannot disable FP
                # contraction must not produce this library at all (the
                # numpy backend takes over instead).
                ["-O3", "-ffp-contract=off"],
            )
            for flags in flag_sets:
                build = subprocess.run(
                    ["cc", *flags, "-shared", "-fPIC", "-o", library, source,
                     "-lm", "-lpthread"],
                    capture_output=True, timeout=120,
                )
                if build.returncode == 0:
                    break
            else:
                build.check_returncode()
        lib = ctypes.CDLL(library)
        kernel = lib.fused_union_bounds
        kernel.restype = ctypes.c_int
        kernel.argtypes = [
            ctypes.POINTER(ctypes.c_float), ctypes.POINTER(ctypes.c_float),
            ctypes.c_int64, ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64), ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, ctypes.c_int64,
            ctypes.c_double,
            ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int64),
        ]
        lib.sabre_pass.restype = ctypes.c_int
        lib.sabre_pass.argtypes = _SABRE_ARGTYPES
        lib.chip_survivors.restype = _I64
        lib.chip_survivors.argtypes = _SURVIVORS_ARGTYPES
        return lib
    except Exception:
        _native_failed = True
        return None


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """Backends that can run here (``native`` only with a C toolchain)."""
    names = ["numpy"]
    global _native_lib
    if _native_lib is None and not _native_failed:
        _native_lib = _build_native()
    if _native_lib is not None:
        names.append("native")
    return tuple(names)


def native_sabre_pass() -> Optional[Callable[..., int]]:
    """The C routing pass while ``native`` is the active backend, else None.

    :class:`~repro.mapping.sabre.SabreRouter` routes on it; the backend
    switch and the supervisor's demotion to ``numpy`` therefore govern
    routing exactly as they govern screening.
    """
    if active_backend() != "native" or _native_lib is None:
        return None
    kernel: Callable[..., int] = _native_lib.sabre_pass
    return kernel


def native_chip_survivors() -> Optional[Callable[..., int]]:
    """The C full-chip survivor count while ``native`` is active, else None.

    :meth:`~repro.collision.yield_simulator.YieldSimulator.estimate_from_arrays`
    counts on it; like :func:`native_sabre_pass`, the backend switch and
    the supervisor's demotion to ``numpy`` govern it.
    """
    if active_backend() != "native" or _native_lib is None:
        return None
    kernel: Callable[..., int] = _native_lib.chip_survivors
    return kernel


def _resolve_default() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if requested in _BACKENDS:
        if requested == "native" and "native" not in available_backends():
            _count_fallback("screening/backend_fallbacks")
            warnings.warn(
                f"{_ENV_VAR}=native requested but no C toolchain is available; "
                "falling back to the numpy backend (results are identical)",
                RuntimeWarning, stacklevel=3,
            )
            return "numpy"
        return requested
    if requested and requested != "auto":
        warnings.warn(
            f"unknown {_ENV_VAR}={requested!r}; expected one of "
            f"{_BACKENDS + ('auto',)}, using auto selection",
            RuntimeWarning, stacklevel=3,
        )
    return "native" if "native" in available_backends() else "numpy"


def active_backend() -> str:
    """The active backend, ``native`` or ``numpy`` (resolved lazily).

    ``native`` screens Algorithm 3 rankings, routes and counts yield
    survivors in C; ``numpy`` ranks directly, routes on the Python pass
    and counts on the numpy loop.  Both give identical results.
    """
    global _active_backend
    if _active_backend is None:
        _active_backend = _resolve_default()
    return _active_backend


def set_backend(name: Optional[str]) -> str:
    """Force a backend (tests/benchmarks); ``None`` re-resolves the default.

    Returns the backend now active.  Selecting ``native`` without a
    toolchain raises — the silent-fallback path is only for the
    environment-variable default, where crashing would break the
    no-toolchain-required guarantee.
    """
    global _active_backend
    if name is None:
        _active_backend = None
        return active_backend()
    name = name.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(f"unknown screening backend {name!r} (known: {_BACKENDS})")
    if name == "native" and "native" not in available_backends():
        raise ValueError("native screening backend unavailable: no C toolchain")
    _active_backend = name
    return _active_backend


def fused_union_bounds(
    lows: np.ndarray,
    highs: np.ndarray,
    slots: np.ndarray,
    num_slots: int,
    bins: CandidateBins,
    epsilon: float,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-slot (lower, upper) union-membership counts from the C kernel.

    Args:
        lows, highs: ``(rows, cols)`` float32 interval endpoint matrices.
            Each row is one (slot, trial); unused columns carry
            :data:`SENTINEL` padding, infinite tails are pre-clamped to
            ``+-``:data:`CLAMP_GHZ`.  Within a row, intervals may overlap
            arbitrarily — the kernel merges them.
        slots: ``(rows,)`` int64 slot index of each row (which ranked
            qubit the row's trial belongs to).
        num_slots: Number of slots (max slot index + 1).
        bins: The candidate grid's :class:`CandidateBins`.
        epsilon: Float-safety margin; counts are returned for intervals
            narrowed (lower) and widened (upper) by it.

    Returns:
        ``(lower, upper)`` int64 arrays of shape ``(num_slots,
        num_candidates)``, bit-identical to :func:`_python_union_bounds`;
        or None when the kernel declines: no native library, a
        non-uniform grid, or a non-zero C status (allocation failure).
        A decline never crashes; the caller ranks the batch directly.
    """
    global _native_lib
    if lows.size == 0 or bins.num == 0:
        zero = np.zeros((num_slots, bins.num), dtype=np.int64)
        return zero, zero.copy()
    if not bins.uniform:
        return None
    if _native_lib is None:
        _native_lib = _build_native()
        if _native_lib is None:
            _count_fallback("screening/native_fallbacks")
            return None
    # Chaos-test site for simulated kernel aborts (a plain None check
    # when no fault plan is armed, so the hot path stays hot).
    faults.maybe_inject("native-kernel")
    rows, cols = lows.shape
    lows32 = np.ascontiguousarray(lows, dtype=np.float32)
    highs32 = np.ascontiguousarray(highs, dtype=np.float32)
    slots64 = np.ascontiguousarray(slots, dtype=np.int64)
    lower = np.zeros((num_slots, bins.num), dtype=np.int64)
    upper = np.zeros((num_slots, bins.num), dtype=np.int64)
    status = _native_lib.fused_union_bounds(
        lows32.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        highs32.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        rows, cols,
        slots64.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)), num_slots,
        bins.origin, bins.inverse_step, bins.num,
        float(epsilon),
        lower.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        upper.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
    )
    if status != 0:
        _count_fallback("screening/native_fallbacks")
        return None
    return lower, upper
