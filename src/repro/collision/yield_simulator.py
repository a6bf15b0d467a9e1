"""Monte Carlo yield simulation (paper Section 4.3.1).

The fabrication of each qubit perturbs its designed frequency by Gaussian
noise ``N(0, sigma)``.  A fabricated chip *fails* when any of the seven
collision conditions of Figure 3 is triggered by the post-fabrication
frequencies, evaluated over every connected pair and every
common-neighbour triple of the chip coupling graph.  The yield rate is
the fraction of successful fabrications over many Monte Carlo trials.

A single chip's estimate (:meth:`YieldSimulator.estimate_from_arrays`)
draws the whole ``(trials, num_qubits)`` noise tensor at once, then tests
the connections a few at a time and keeps only the trials that have not
failed yet.  Designed chips mostly fail on their first connections, so
the later ones are tested on a small remainder.  The count is exact: a
trial fails when *any* condition holds on *any* connection, and each
trial's comparisons read only its own row of the noise draw, so which
rows share an array and in what order the connections come cannot
change whether a trial survives.  :meth:`YieldSimulator.collision_mask`
keeps the dense per-trial form as the reference.  While ``native`` is the
active backend the same count runs as one C call (``chip_survivors`` in
``native.c``, loaded by :mod:`repro.collision.merge_kernel`), which walks
each trial's pairs, then triples, with the arithmetic of the numpy masks
and stops at the trial's first failing connection.  It declines, and the
numpy loop counts, when an array is not C-contiguous float64/int64 or a
pair or triple index lies outside ``[0, num_qubits)``.

The noise itself is ``np.random.default_rng(seed).normal(0.0, sigma,
(trials, num_qubits))``, drawn by :func:`fabrication_noise`; the
allocator's per-qubit noise comes from the same helper.  While
``native`` is active the C kernel ``pcg64_normal_fill`` draws it: it
starts from the PCG64 state numpy's seeding produced and replays numpy's
ziggurat with numpy's tables, so the array is numpy's byte for byte.
The first draw of a process first compares one fixed-seed C draw with
numpy's (:func:`~repro.collision.merge_kernel.normal_fill_verified`);
if they differ, or the backend is ``numpy``, numpy draws, and each such
decline is counted under ``yield/noise_declines/*``.  Like numpy's fill,
the kernel writes row by row from one stream, so the first rows of a
longer draw equal a shorter draw of the same seed.

Design-space sweeps score many candidate frequency plans against the
*same* coupling graph.  :meth:`YieldSimulator.estimate_batch` evaluates a
whole ``(num_candidates, num_qubits)`` matrix of designs against one
shared noise tensor (common random numbers), so candidate comparisons
carry no Monte Carlo comparison noise and no per-candidate Python
overhead.  Algorithm 3 ranks its candidates the same way, a BFS wave of
local regions per :meth:`YieldSimulator.ranking_failure_counts` call:
in C (``region_failure_counts``) while ``native`` is active and the
thresholds fold, with :meth:`YieldSimulator.failure_counts` otherwise.
Both give the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision import merge_kernel
from repro.collision.conditions import (
    ANHARMONICITY_GHZ,
    CollisionThresholds,
    DEFAULT_THRESHOLDS,
    pair_collision_mask,
    triple_collision_mask,
)
from repro.collision.screening import screen_candidate_bounds_batch
from repro.hardware.architecture import Architecture
from repro.hardware.frequency import DEFAULT_SIGMA_GHZ
from repro.runtime.metrics import global_metrics

_metrics = global_metrics()

#: Trial count used by the paper's evaluation (10x IBM's own experiments).
PAPER_TRIAL_COUNT = 10_000

#: Upper bound on the number of sampled-frequency elements
#: (candidates x trials x qubits) materialized per vectorized chunk of a
#: batched estimate.  The working set of one chunk is a small multiple of
#: this (gathered pair/triple columns), so the default keeps chunks
#: resident in a few hundred KB of cache — larger chunks are memory-bound
#: and measurably slower.
DEFAULT_CHUNK_ELEMENTS = 40_000

#: Connections tested per step of the survivor-compacted estimate: small
#: enough that failed trials leave the working set early, large enough to
#: amortize the per-step numpy overhead.
CONNECTION_BLOCK = 4


@lru_cache(maxsize=1024)
def _cached_index_arrays(
    pairs: Tuple[Tuple[int, int], ...],
    triples: Tuple[Tuple[int, int, int], ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """Immutable ``(pairs, triples)`` index arrays for one coupling topology.

    Sweeps call the simulator thousands of times on the same coupling
    graph; caching the Python-tuple -> numpy conversion removes the array
    rebuild from the hot path.
    """
    pairs_array = np.array(pairs, dtype=int).reshape(-1, 2)
    triples_array = np.array(triples, dtype=int).reshape(-1, 3)
    pairs_array.setflags(write=False)
    triples_array.setflags(write=False)
    return pairs_array, triples_array


def collision_index_arrays(
    pairs: Sequence[Tuple[int, int]],
    triples: Sequence[Tuple[int, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize pair/triple index sequences to ``(N, 2)``/``(N, 3)`` arrays.

    Hashable inputs (sequences of tuples) are memoized per topology;
    ndarray inputs are only reshaped.
    """
    if isinstance(pairs, np.ndarray) or isinstance(triples, np.ndarray):
        pairs_array = np.asarray(pairs, dtype=int).reshape(-1, 2)
        triples_array = np.asarray(triples, dtype=int).reshape(-1, 3)
        return pairs_array, triples_array
    return _cached_index_arrays(
        tuple((int(a), int(b)) for a, b in pairs),
        tuple((int(j), int(i), int(k)) for j, i, k in triples),
    )


def fabrication_noise(
    seed: Optional[int], sigma_ghz: float, shape: Tuple[int, ...]
) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, sigma_ghz, shape)``, byte for byte.

    The C kernel draws it (:func:`~repro.collision.merge_kernel.pcg64_normal`)
    when ``native`` is the active backend, the seed gives a fresh PCG64
    generator and the kernel passed its once-per-process self-check
    (:func:`~repro.collision.merge_kernel.normal_fill_verified`).
    Otherwise numpy draws, and the decline is counted in
    ``yield/noise_declines/<backend|bit_generator|self_check>``.  Both
    give the same bytes, so a grid point has one answer whichever runs.
    """
    rng = np.random.default_rng(seed)
    kernel = merge_kernel.native_kernel("pcg64_normal_fill")
    if kernel is None:
        reason = "backend"
    elif type(rng.bit_generator) is not np.random.PCG64 or isinstance(
        seed, (np.random.Generator, np.random.BitGenerator)
    ):
        # The kernel leaves the generator's state alone, so a generator
        # the caller keeps drawing from takes numpy's path.
        reason = "bit_generator"
    elif not merge_kernel.normal_fill_verified():
        reason = "self_check"
    elif not sigma_ghz >= 0.0:
        # numpy raises for a negative or NaN scale; let it.
        return rng.normal(0.0, sigma_ghz, size=shape)
    else:
        return merge_kernel.pcg64_normal(kernel, rng.bit_generator, sigma_ghz, shape)
    _metrics.increment(f"yield/noise_declines/{reason}")
    return rng.normal(0.0, sigma_ghz, size=shape)


@dataclass(frozen=True)
class YieldEstimate:
    """Result of a Monte Carlo yield simulation."""

    yield_rate: float
    successes: int
    trials: int
    sigma_ghz: float

    @property
    def failure_rate(self) -> float:
        return 1.0 - self.yield_rate

    def standard_error(self) -> float:
        """Binomial standard error of the yield estimate."""
        p = self.yield_rate
        return float(np.sqrt(max(p * (1.0 - p), 0.0) / self.trials))


class YieldSimulator:
    """Monte Carlo yield simulator with IBM's frequency-collision model.

    Args:
        trials: Number of fabrication trials (the paper uses 10,000).
        sigma_ghz: Fabrication precision, standard deviation of the
            Gaussian frequency noise in GHz (the paper uses 0.030).
        delta_ghz: Qubit anharmonicity in GHz.
        thresholds: Collision thresholds (defaults to Figure 3 values).
        seed: Seed for the noise generator; fixing it makes yield
            comparisons between architectures use common random numbers,
            reducing comparison variance.
    """

    def __init__(
        self,
        trials: int = PAPER_TRIAL_COUNT,
        sigma_ghz: float = DEFAULT_SIGMA_GHZ,
        delta_ghz: float = ANHARMONICITY_GHZ,
        thresholds: CollisionThresholds = DEFAULT_THRESHOLDS,
        seed: Optional[int] = None,
    ) -> None:
        if trials <= 0:
            raise ValueError("trial count must be positive")
        if sigma_ghz < 0:
            raise ValueError("sigma must be non-negative")
        self.trials = int(trials)
        self.sigma_ghz = float(sigma_ghz)
        self.delta_ghz = float(delta_ghz)
        self.thresholds = thresholds
        self.seed = seed

    # -- public API ----------------------------------------------------------

    def estimate(self, architecture: Architecture) -> YieldEstimate:
        """Estimate the yield rate of a fully designed architecture."""
        if not architecture.frequencies:
            raise ValueError(
                f"architecture {architecture.name!r} has no designed frequencies; "
                "run frequency allocation first"
            )
        qubits = architecture.qubits
        frequencies = np.array([architecture.frequencies[q] for q in qubits])
        index_of = {q: i for i, q in enumerate(qubits)}
        pairs = [(index_of[a], index_of[b]) for a, b in architecture.collision_pairs()]
        triples = [
            (index_of[j], index_of[i], index_of[k])
            for j, i, k in architecture.collision_triples()
        ]
        _metrics.increment("yield/estimates")
        _metrics.increment("yield/trials", self.trials)
        with _metrics.timer("yield/estimate"):
            return self.estimate_from_arrays(frequencies, pairs, triples)

    def estimate_from_arrays(
        self,
        frequencies: np.ndarray,
        pairs: Sequence[Tuple[int, int]],
        triples: Sequence[Tuple[int, int, int]],
    ) -> YieldEstimate:
        """Estimate yield for raw frequency/connectivity arrays.

        The sweep's full-chip estimate (:meth:`estimate`) lands here.
        While ``native`` is the active backend the survivors are counted
        in C (:meth:`_native_survivors`); otherwise, and whenever the C
        count declines, :meth:`_compacted_survivors` counts them.  That
        loop tests pairs, then triples, :data:`CONNECTION_BLOCK`
        connections at a time, and after each block drops the rows of the
        sampled frequencies whose trial failed, stopping once none remain.
        Both counts equal ``trials - collision_mask(...).sum()`` exactly:
        the noise draw is the same, each surviving trial meets the same
        comparisons as in the dense mask, and a trial that failed on one
        connection fails whatever the others give.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        noise = self._draw_noise(frequencies.shape[0])
        kernel = merge_kernel.native_kernel("chip_survivors")
        if kernel is not None:
            survivors = self._native_survivors(
                kernel, frequencies, noise, pairs_array, triples_array
            )
            if survivors is not None:
                return self._estimate_from_successes(survivors)
        return self._estimate_from_successes(
            self._compacted_survivors(frequencies, noise, pairs_array, triples_array)
        )

    def _compacted_survivors(
        self,
        frequencies: np.ndarray,
        noise: np.ndarray,
        pairs_array: np.ndarray,
        triples_array: np.ndarray,
    ) -> int:
        """The numpy survivor count: the reference and no-toolchain path."""
        sampled = frequencies[None, :] + noise
        blocks = [
            (pair_collision_mask, pairs_array[start:start + CONNECTION_BLOCK])
            for start in range(0, len(pairs_array), CONNECTION_BLOCK)
        ] + [
            (triple_collision_mask, triples_array[start:start + CONNECTION_BLOCK])
            for start in range(0, len(triples_array), CONNECTION_BLOCK)
        ]
        for mask, block in blocks:
            if not sampled.shape[0]:
                break
            failed = mask(sampled, *block.T, self.delta_ghz, self.thresholds)
            sampled = sampled[~failed]
        return sampled.shape[0]

    def _native_survivors(
        self,
        kernel: Callable[..., int],
        frequencies: np.ndarray,
        noise: np.ndarray,
        pairs_array: np.ndarray,
        triples_array: np.ndarray,
    ) -> Optional[int]:
        """:meth:`_compacted_survivors` as one call of the C ``chip_survivors``.

        Returns None, so the numpy loop decides, unless the kernel may
        read the arrays (:func:`~repro.collision.merge_kernel.c_readable`).
        """
        n = frequencies.shape[0]
        if frequencies.ndim != 1 or noise.shape != (self.trials, n):
            return None
        if not merge_kernel.c_readable(
            n, (frequencies, noise), (pairs_array, triples_array)
        ):
            return None
        t = self.thresholds
        return int(kernel(
            frequencies.ctypes.data, noise.ctypes.data, self.trials, n,
            pairs_array.ctypes.data, pairs_array.shape[0],
            triples_array.ctypes.data, triples_array.shape[0],
            self.delta_ghz, float(t.condition_1_ghz), float(t.condition_2_ghz),
            float(t.condition_3_ghz), float(t.condition_5_ghz),
            float(t.condition_6_ghz), float(t.condition_7_ghz),
        ))

    def estimate_batch(
        self,
        frequencies_batch: np.ndarray,
        pairs: Sequence[Tuple[int, int]],
        triples: Sequence[Tuple[int, int, int]],
        max_chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> List[YieldEstimate]:
        """Estimate yield for many candidate frequency plans on one topology.

        All candidates are evaluated against a *single* ``(trials,
        num_qubits)`` noise tensor — the common-random-numbers scheme the
        paper prescribes for low-variance candidate comparisons — in one
        vectorized pass, chunked so that no intermediate tensor exceeds
        ``max_chunk_elements`` elements.

        Every batch size — including one — runs through the same chunked
        :meth:`failure_counts` kernel, so a row's estimate is
        bit-identical whether it is submitted alone or inside any larger
        batch.  Batches share the noise draw across candidates and factor
        each pair/triple frequency difference into a designed part (per
        candidate) and a noise part (computed once per batch), so batched
        sweeps replace sequential candidate loops at a fraction of the
        cost.

        Args:
            frequencies_batch: ``(num_candidates, num_qubits)`` designed
                frequencies (a single 1-D vector is treated as a batch of
                one).
            pairs: Connected pairs ``(j, k)``, as qubit column indices.
            triples: Triples ``(j, i, k)``, as qubit column indices.
            max_chunk_elements: Bound on candidates x trials x qubits
                elements materialized at once.

        Returns:
            One :class:`YieldEstimate` per candidate row, in order.
        """
        counts = self.failure_counts(
            frequencies_batch, pairs, triples,
            max_chunk_elements=max_chunk_elements,
        )
        return [
            self._estimate_from_successes(self.trials - int(count)) for count in counts
        ]

    def failure_counts(
        self,
        frequencies_batch: np.ndarray,
        pairs: Sequence[Tuple[int, int]],
        triples: Sequence[Tuple[int, int, int]],
        noise: Optional[np.ndarray] = None,
        max_chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> np.ndarray:
        """Per-candidate failed-trial counts for a batch of frequency plans.

        The raw integer form of :meth:`estimate_batch` — one failed-trial
        count per candidate row, computed through the same vectorized
        kernels.  :meth:`ranking_failure_counts` counts on it when C does
        not: it avoids per-candidate :class:`YieldEstimate` object
        construction and accepts a caller-owned ``noise`` tensor so common
        random numbers can be drawn once and reused across repeated
        scorings of the same qubit (refinement sweeps).

        Args:
            frequencies_batch: ``(num_candidates, num_qubits)`` designed
                frequencies (a 1-D vector is a batch of one).
            pairs: Connected pairs ``(j, k)``, as qubit column indices.
            triples: Triples ``(j, i, k)``, as qubit column indices.
            noise: Optional ``(trials, num_qubits)`` fabrication-noise
                tensor.  When omitted it is drawn from this simulator's
                seed, which makes the result bit-identical to
                :meth:`estimate_batch` on the same inputs.
            max_chunk_elements: Bound on candidates x trials x qubits
                elements materialized at once.
        """
        frequencies_batch = np.atleast_2d(np.asarray(frequencies_batch, dtype=float))
        num_candidates, num_qubits = frequencies_batch.shape
        _metrics.increment("yield/kernel_calls")
        _metrics.increment("yield/kernel_rows", num_candidates)
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        if pairs_array.size == 0 and triples_array.size == 0:
            return np.zeros(num_candidates, dtype=np.int64)
        if noise is None:
            noise = self._draw_noise(num_qubits)
        if not self._foldable_thresholds():
            return self._failure_counts_generic(
                frequencies_batch, pairs_array, triples_array, noise, max_chunk_elements
            )
        return self._failure_counts_folded(
            frequencies_batch, pairs_array, triples_array, noise, max_chunk_elements
        )

    def ranking_failure_counts(
        self,
        candidates: np.ndarray,
        regions: Sequence[
            Tuple[int, np.ndarray, Sequence, Sequence, Optional[np.ndarray]]
        ],
        max_chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> List[np.ndarray]:
        """Every candidate's failed-trial count, for each of many local regions.

        Algorithm 3 ranks one BFS wave of scanned qubits per call.  A
        region's candidate ``c`` is the design ``base`` with the scanned
        qubit at ``candidates[c]``, and its count is
        :meth:`failure_counts` of that design on the region's noise.
        While ``native`` is active and the thresholds fold
        (:meth:`_foldable_thresholds`), the C count
        (:func:`~repro.collision.screening.screen_candidate_bounds_batch`)
        counts every region; otherwise, or when it declines, numpy counts
        each region.  Both give the same int64 counts, and a region's
        counts never depend on the batch it came in.

        Args:
            candidates: Candidate frequencies of the scanned qubits.
            regions: Per scanned qubit: ``(qubit_index, base_frequencies,
                pairs, triples, noise)``: the scanned qubit's column in
                the region arrays; the designed frequencies of the
                region's qubits (the scanned qubit's entry is ignored);
                the local pairs and triples ``(j, i, k)`` as region column
                indices; and the ``(trials, region_size)`` CRN noise
                tensor, or None to draw from the simulator's seed.
            max_chunk_elements: Chunk bound for the numpy count.
        """
        candidates = np.ascontiguousarray(candidates, dtype=float)
        results = [np.zeros(candidates.shape[0], dtype=np.int64) for _ in regions]
        positions, ranked = [], []
        for position, (qubit_index, base_frequencies, pairs, triples, noise) in (
            enumerate(regions)
        ):
            pairs_array, triples_array = collision_index_arrays(pairs, triples)
            if pairs_array.size == 0 and triples_array.size == 0:
                continue
            base = np.asarray(base_frequencies, dtype=float)
            if noise is None:
                noise = self._draw_noise(base.shape[0])
            positions.append(position)
            ranked.append((qubit_index, base, pairs_array, triples_array, noise))
        counts = None
        if ranked and self._foldable_thresholds():
            counts = screen_candidate_bounds_batch(
                candidates, ranked, self.trials, self.delta_ghz, self.thresholds
            )
        if counts is None:
            counts = []
            for qubit_index, base, pairs_array, triples_array, noise in ranked:
                batch = np.repeat(base[None, :], candidates.shape[0], axis=0)
                batch[:, qubit_index] = candidates
                counts.append(self.failure_counts(
                    batch, pairs_array, triples_array, noise=noise,
                    max_chunk_elements=max_chunk_elements,
                ))
        for position, region_counts in zip(positions, counts):
            results[position] = region_counts
        return results

    def _failure_counts_folded(
        self,
        frequencies_batch: np.ndarray,
        pairs_array: np.ndarray,
        triples_array: np.ndarray,
        noise: np.ndarray,
        max_chunk_elements: int,
    ) -> np.ndarray:
        """The folded-interval batch kernel (see :meth:`_foldable_thresholds`)."""
        num_candidates = frequencies_batch.shape[0]
        delta = self.delta_ghz
        t = self.thresholds
        # Common random numbers factored per connection: the noise part of
        # every pair/triple frequency difference is shared by all
        # candidates, so it is computed once per batch and only the cheap
        # designed-frequency offsets vary per candidate.
        pair_noise = np.empty((self.trials, 0))
        pair_designed = np.empty((num_candidates, 0))
        if pairs_array.size:
            pj, pk = pairs_array[:, 0], pairs_array[:, 1]
            pair_noise = noise[:, pj] - noise[:, pk]
            pair_designed = frequencies_batch[:, pj] - frequencies_batch[:, pk]
        triple_ik_noise = np.empty((self.trials, 0))
        triple_sum_noise = np.empty((self.trials, 0))
        triple_ik_designed = np.empty((num_candidates, 0))
        triple_sum_designed = np.empty((num_candidates, 0))
        if triples_array.size:
            tj, ti, tk = triples_array[:, 0], triples_array[:, 1], triples_array[:, 2]
            triple_ik_noise = noise[:, ti] - noise[:, tk]
            triple_sum_noise = 2.0 * noise[:, tj] - noise[:, ti] - noise[:, tk]
            triple_ik_designed = frequencies_batch[:, ti] - frequencies_batch[:, tk]
            triple_sum_designed = (
                2.0 * frequencies_batch[:, tj] + delta
                - frequencies_batch[:, ti] - frequencies_batch[:, tk]
            )
        # Folded condition constants (valid because _foldable_thresholds
        # guarantees every carve-out lies on the positive |diff| axis):
        # pair fails iff |diff| in [0, t1) u (c2-t2, c2+t2) u (c34, inf)
        # with c2 = -delta/2 and c34 = -delta - t3 (conditions 3 and 4
        # merge into one open-ended interval).
        c2 = -delta / 2.0
        c34 = -delta - t.condition_3_ghz
        c6 = -delta

        width = max(pair_noise.shape[1], triple_ik_noise.shape[1], 1)
        chunk = max(1, int(max_chunk_elements) // max(1, self.trials * width))
        counts = np.empty(num_candidates, dtype=np.int64)
        for start in range(0, num_candidates, chunk):
            stop = min(start + chunk, num_candidates)
            block = stop - start
            failed = np.zeros((block, self.trials), dtype=bool)
            if pairs_array.size:
                diff = (
                    pair_designed[start:stop, None, :] + pair_noise[None, :, :]
                ).reshape(block * self.trials, -1)
                np.abs(diff, out=diff)
                hit = diff < t.condition_1_ghz
                hit |= diff > c34
                np.subtract(diff, c2, out=diff)
                np.abs(diff, out=diff)
                hit |= diff < t.condition_2_ghz
                self._fold_any(hit, failed)
            if triples_array.size:
                diff = (
                    triple_ik_designed[start:stop, None, :] + triple_ik_noise[None, :, :]
                ).reshape(block * self.trials, -1)
                np.abs(diff, out=diff)
                hit = diff < t.condition_5_ghz
                np.subtract(diff, c6, out=diff)
                np.abs(diff, out=diff)
                hit |= diff < t.condition_6_ghz
                total = (
                    triple_sum_designed[start:stop, None, :] + triple_sum_noise[None, :, :]
                ).reshape(block * self.trials, -1)
                np.abs(total, out=total)
                hit |= total < t.condition_7_ghz
                self._fold_any(hit, failed)
            counts[start:stop] = failed.sum(axis=1)
        return counts

    def collision_mask(
        self,
        sampled_frequencies: np.ndarray,
        pairs: Sequence[Tuple[int, int]],
        triples: Sequence[Tuple[int, int, int]],
    ) -> np.ndarray:
        """Boolean per-trial mask: True where the fabricated chip has any collision."""
        pairs_array, triples_array = collision_index_arrays(pairs, triples)
        return self._collision_mask_from_indices(
            sampled_frequencies, pairs_array, triples_array
        )

    # -- internals -----------------------------------------------------------

    def _draw_noise(self, num_qubits: int) -> np.ndarray:
        """The ``(trials, num_qubits)`` fabrication-noise tensor for this seed."""
        return fabrication_noise(self.seed, self.sigma_ghz, (self.trials, num_qubits))

    def _estimate_from_successes(self, successes: int) -> YieldEstimate:
        return YieldEstimate(
            yield_rate=successes / self.trials,
            successes=successes,
            trials=self.trials,
            sigma_ghz=self.sigma_ghz,
        )

    def _collision_mask_from_indices(
        self,
        sampled_frequencies: np.ndarray,
        pairs_array: np.ndarray,
        triples_array: np.ndarray,
    ) -> np.ndarray:
        if pairs_array.size == 0 and triples_array.size == 0:
            # No pair can collide on a connection-free region: all-success,
            # regardless of the sampled frequencies.
            return np.zeros(sampled_frequencies.shape[0], dtype=bool)
        failed_pairs = pair_collision_mask(
            sampled_frequencies,
            pairs_array[:, 0],
            pairs_array[:, 1],
            self.delta_ghz,
            self.thresholds,
        )
        failed_triples = triple_collision_mask(
            sampled_frequencies,
            triples_array[:, 0],
            triples_array[:, 1],
            triples_array[:, 2],
            self.delta_ghz,
            self.thresholds,
        )
        return failed_pairs | failed_triples

    def _foldable_thresholds(self) -> bool:
        """Whether the folded interval form of the conditions is applicable.

        The fast batched kernel folds each symmetric condition pair onto the
        positive ``|diff|`` axis, which is only valid when the anharmonicity
        is negative and large enough that no carve-out interval straddles
        zero.  The paper's constants satisfy this comfortably; exotic
        threshold configurations fall back to the generic kernel.
        """
        t = self.thresholds
        return (
            self.delta_ghz < 0.0
            and -self.delta_ghz / 2.0 > t.condition_2_ghz
            and -self.delta_ghz > t.condition_3_ghz
            and -self.delta_ghz > t.condition_6_ghz
        )

    @staticmethod
    def _fold_any(hit: np.ndarray, failed: np.ndarray) -> None:
        """OR a flat ``(rows, connections)`` hit matrix into ``failed`` rows.

        Column-wise accumulation: numpy's ``any(axis=1)`` walks the array
        row by row, which is an order of magnitude slower on the tall-thin
        matrices the batched kernel produces.
        """
        out = failed.reshape(-1)
        for column in range(hit.shape[1]):
            np.logical_or(out, hit[:, column], out=out)

    def _failure_counts_generic(
        self,
        frequencies_batch: np.ndarray,
        pairs_array: np.ndarray,
        triples_array: np.ndarray,
        noise: np.ndarray,
        max_chunk_elements: int,
    ) -> np.ndarray:
        """Chunked batch evaluation through the generic condition masks."""
        num_candidates, num_qubits = frequencies_batch.shape
        chunk = max(1, int(max_chunk_elements) // max(1, self.trials * num_qubits))
        counts = np.empty(num_candidates, dtype=np.int64)
        for start in range(0, num_candidates, chunk):
            block = frequencies_batch[start:start + chunk]
            sampled = (block[:, None, :] + noise[None, :, :]).reshape(-1, num_qubits)
            failed = self._collision_mask_from_indices(sampled, pairs_array, triples_array)
            counts[start:start + chunk] = failed.reshape(block.shape[0], self.trials).sum(axis=1)
        return counts

    def __repr__(self) -> str:
        return (
            f"YieldSimulator(trials={self.trials}, sigma_ghz={self.sigma_ghz}, "
            f"delta_ghz={self.delta_ghz}, seed={self.seed})"
        )


def estimate_yield(
    architecture: Architecture,
    trials: int = PAPER_TRIAL_COUNT,
    sigma_ghz: float = DEFAULT_SIGMA_GHZ,
    seed: Optional[int] = None,
) -> YieldEstimate:
    """One-call convenience wrapper around :class:`YieldSimulator`."""
    return YieldSimulator(trials=trials, sigma_ghz=sigma_ghz, seed=seed).estimate(architecture)
