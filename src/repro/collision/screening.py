"""Algorithm 3's candidate ranking in C, one wave at a time.

Algorithm 3 ranks each scanned qubit's candidate frequencies by the
number of Monte Carlo trials in which its local collision region fails.
The allocator ranks a whole BFS wave of independent regions in one
:meth:`~repro.collision.yield_simulator.YieldSimulator.ranking_failure_counts`
call, and while ``native`` is the active backend that call lands in
:func:`screen_candidate_bounds_batch`, which counts every candidate of
every region exactly with the C kernel ``region_failure_counts`` (see
``native.c``): the count of
:meth:`~repro.collision.yield_simulator.YieldSimulator._failure_counts_folded`,
operation for operation.

The module and the function keep names from an interval screen that
used to bound these counts here, because perfbench's tracer wraps
``repro.collision.screening.screen_candidate_bounds_batch`` to attribute
the ranking's time to its ``collision.screening`` layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.collision import merge_kernel
from repro.collision.conditions import CollisionThresholds
from repro.runtime.metrics import global_metrics


def screen_candidate_bounds_batch(
    candidates: np.ndarray,
    regions: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    trials: int,
    delta_ghz: float,
    thresholds: CollisionThresholds,
) -> Optional[List[np.ndarray]]:
    """Exact int64 failed-trial counts of every candidate, per region, in C.

    Returns None, so that numpy ranks the whole batch, when ``native`` is
    not the active backend, or when the kernel declines a region: the
    scanned column or an index outside ``[0, n)``, a noise tensor not of
    shape ``(trials, n)``, or an array that is not C-contiguous
    float64/int64 (:func:`~repro.collision.merge_kernel.c_readable`).
    Each decline counts once in ``screening/native_fallbacks``.  The
    caller checks that the thresholds fold.  The name is the interval
    screen's, kept because perfbench's tracer wraps this function by it.

    Args:
        candidates: C-contiguous float64 candidate frequencies, in any order.
        regions: Per scanned qubit: ``(qubit_index, base, pairs, triples,
            noise)``: the scanned qubit's column, the designed
            frequencies of the region's qubits (the scanned entry is
            ignored), the ``(P, 2)`` pairs and ``(T, 3)`` triples
            ``(j, i, k)`` as column indices, and the ``(trials, n)``
            noise tensor.
        trials, delta_ghz, thresholds: The simulator's.
    """
    kernel = merge_kernel.native_kernel("region_failure_counts")
    if kernel is None:
        return None
    # Chaos-test site for simulated kernel aborts (a plain None check
    # when no fault plan is armed).
    faults.maybe_inject("native-kernel")
    t = thresholds
    results: List[np.ndarray] = []
    for qubit_index, base, pairs, triples, noise in regions:
        n = base.shape[0]
        counts = np.zeros(candidates.shape[0], dtype=np.int64)
        if not (
            0 <= qubit_index < n
            and noise.shape == (trials, n)
            and merge_kernel.c_readable(n, (candidates, base, noise), (pairs, triples))
        ) or kernel(
            candidates.ctypes.data, candidates.shape[0], int(qubit_index),
            base.ctypes.data, noise.ctypes.data, trials, n,
            pairs.ctypes.data, pairs.shape[0], triples.ctypes.data, triples.shape[0],
            delta_ghz, float(t.condition_1_ghz), float(t.condition_2_ghz),
            float(t.condition_3_ghz), float(t.condition_5_ghz),
            float(t.condition_6_ghz), float(t.condition_7_ghz),
            counts.ctypes.data,
        ):
            global_metrics().increment("screening/native_fallbacks")
            return None
        results.append(counts)
    return results
