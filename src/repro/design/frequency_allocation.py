"""Frequency allocation subroutine — Algorithm 3 of the paper.

Given a finished qubit layout and connection design, assign each qubit a
pre-fabrication frequency inside the allowed band (5.00-5.34 GHz) so that
the Monte Carlo yield of the whole chip is maximized.

The algorithm exploits two observations the paper makes: (1) qubits at
the geometric centre of the layout have the most connections and are the
most collision-prone, and (2) collisions are local — a qubit can only
collide with qubits at distance one or two in the coupling graph.  It
therefore fixes the centre qubit to the middle of the band and then walks
the coupling graph breadth-first, assigning each newly reached qubit the
candidate frequency that maximizes the simulated yield of its *local
region* (the already-assigned qubits it can collide with).

Two structural layers keep the search fast:

* **Incidence maps** — the global pair/triple lists are indexed by member
  qubit once per architecture, and every connection carries an
  incrementally maintained count of its still-unassigned members, so each
  local region is assembled in O(degree^2) instead of re-filtering the
  whole chip's connection lists per (qubit, pass).
* **One CRN noise tensor per qubit** — the common-random-numbers noise
  used to compare a qubit's candidates is drawn once (from the same
  per-qubit seed as always) and reused by every scoring of that qubit in
  the same allocation: refinement sweeps never redraw.

**Two ways to rank, picked by the toolchain.**  Every candidate ranking
goes through
:meth:`~repro.collision.yield_simulator.YieldSimulator.screened_failure_counts_batch`.
While the C merge kernel is the active backend it screens the candidates
with exact interval counts (:mod:`repro.collision.screening`) and runs
the joint Monte Carlo kernel only on the few it cannot decide; under
the ``numpy`` backend the joint kernel scores every candidate.  No user
setting chooses between them, and both give the same winners.

**Candidate tie-break.**  Monte Carlo yields are integer success counts
over ``local_trials``, so exact ties between candidates are common
(typically several candidates survive every trial).  Candidates whose
yield is within ``1e-12`` of the best are tied; among them the allocator
picks the one closest to the middle of the allowed band, measured in
candidate-grid steps, and the *lower* frequency when two are equally
close.  Centre preference keeps the most slack on both sides for the
qubits assigned later; the rule is deterministic and documented here
instead of silently taking the lowest-frequency tied candidate.

**Allocation strategies.**  The search order is pluggable through
:class:`AllocationStrategy`:

* ``bfs-greedy`` (default) — the paper's Algorithm 3 exactly: centre
  qubit mid-band, breadth-first greedy over the full candidate grid.
* ``coordinate-descent`` — BFS greedy followed by full-assignment
  refinement sweeps (the global-optimization extension suggested by the
  paper's Discussion; also selected implicitly by
  ``refinement_passes > 0``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.collision.conditions import (
    ANHARMONICITY_GHZ,
    CollisionThresholds,
    DEFAULT_THRESHOLDS,
)
from repro.collision.yield_simulator import (
    ScreenedCounts,
    YieldSimulator,
    fabrication_noise,
)
from repro.hardware.architecture import Architecture
from repro.hardware.frequency import (
    DEFAULT_SIGMA_GHZ,
    candidate_frequencies,
    middle_frequency,
)
from repro.runtime.metrics import global_metrics
from repro.utils.rng import seed_for

_metrics = global_metrics()

#: Two candidate yields within this tolerance count as tied.  Monte Carlo
#: yields are multiples of ``1/local_trials``, so this is equivalent to
#: exact equality of success counts for any realistic trial count.
TIE_TOLERANCE = 1e-12

#: Process-wide cache of per-qubit CRN fabrication-noise tensors, keyed by
#: everything that determines a draw: (base seed, sigma, trials, qubit,
#: region size).  The tensors are pure functions of the key — a cold
#: sweep re-derives byte-identical draws for every architecture sharing
#: an allocator configuration, so serving them from one draw per key
#: removes a measurable slice of Algorithm 3's cold path without
#: touching any result.  Entries are read-only; a bounded FIFO keeps
#: pathological sweeps from growing the cache without limit.
_NOISE_TENSORS: Dict[Tuple, np.ndarray] = {}
_NOISE_TENSOR_LIMIT = 256

#: Process-wide memo of local-region ranking winners.  A ranking is a
#: pure function of its full content key — the scanned qubit (it seeds
#: the CRN noise), the local connections, the assigned frequencies of
#: the region, the candidate subset, and every allocator knob the local
#: simulation reads — so serving a repeat from the memo is bit-identical
#: to recomputing it.  Bus-count series and random-bus seed clouds
#: re-rank mostly identical local regions (roughly 40-60% of a cold
#: evaluation grid's rankings are exact repeats), which makes this the
#: largest single win on the cold Algorithm 3 path.  Values are a single
#: float each; a bounded FIFO keeps unbounded exploratory sessions in
#: check.
_RANKING_MEMO: Dict[Tuple, float] = {}
_RANKING_MEMO_LIMIT = 16384


def _bounded_put(cache: Dict, limit: int, key: Tuple, value) -> None:
    """Insert into a process-wide cache, evicting oldest entries first."""
    while len(cache) >= limit:
        cache.pop(next(iter(cache)))
    cache[key] = value


def reset_shared_caches() -> None:
    """Clear the process-wide noise-tensor and ranking-winner caches.

    Both caches hold pure functions of their content keys, so clearing
    them never changes any result — it only makes the next rankings pay
    the cold-path cost again.  Benchmarks use this to simulate a fresh
    process ("a true cold session"), and tests use it to force both
    sides of an identity comparison to actually compute.
    """
    _NOISE_TENSORS.clear()
    _RANKING_MEMO.clear()


def _shared_noise(key: Tuple, sigma_ghz: float, trials: int, qubit: int,
                  region_size: int) -> np.ndarray:
    noise = _NOISE_TENSORS.get(key)
    if noise is None:
        noise = fabrication_noise(
            seed_for("freq-alloc", key[0], qubit), sigma_ghz, (trials, region_size)
        )
        noise.setflags(write=False)
        _bounded_put(_NOISE_TENSORS, _NOISE_TENSOR_LIMIT, key, noise)
    return noise


class _AllocationContext:
    """Per-architecture state shared by every allocation strategy.

    Built once per :meth:`FrequencyAllocator.allocate` call: the coupling
    structure (adjacency, collision pairs/triples), the per-qubit
    incidence maps into those lists, the candidate grid with its
    mid-band tie-break distances, and the per-qubit CRN noise cache.
    """

    def __init__(self, allocator: "FrequencyAllocator", architecture: Architecture) -> None:
        self.allocator = allocator
        self.architecture = architecture
        self.qubits: List[int] = architecture.qubits
        self.center: int = architecture.lattice.central_qubit()

        edges = architecture.coupling_edges()
        adjacency: Dict[int, Set[int]] = {q: set() for q in self.qubits}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        self.neighbors: Dict[int, List[int]] = {
            q: sorted(adjacency[q]) for q in self.qubits
        }

        # Collision connections, in the same global order the architecture
        # reports them (pairs = coupling edges; triples enumerated per
        # centre qubit over its sorted neighbour pairs).
        self.pairs: List[Tuple[int, int]] = edges
        triples: List[Tuple[int, int, int]] = []
        for j in self.qubits:
            around = self.neighbors[j]
            for idx_a in range(len(around)):
                for idx_b in range(idx_a + 1, len(around)):
                    triples.append((j, around[idx_a], around[idx_b]))
        self.triples = triples

        # Conflict sets for the batched-ranking waves: two qubits conflict
        # when some collision connection contains both — they are adjacent
        # (a pair, or centre-spectator of a triple) or share a common
        # neighbour (the two spectators of a triple).  Non-conflicting
        # qubits never appear in each other's local regions, so a wave of
        # pairwise non-conflicting qubits can be ranked against one shared
        # assignment state with bit-identical winners.
        self.conflicts: Dict[int, Set[int]] = {
            q: set(adjacency[q]) for q in self.qubits
        }
        for j in self.qubits:
            around = self.neighbors[j]
            for idx_a in range(len(around)):
                for idx_b in range(idx_a + 1, len(around)):
                    self.conflicts[around[idx_a]].add(around[idx_b])
                    self.conflicts[around[idx_b]].add(around[idx_a])

        # Incidence maps: connection indices by member qubit, ascending —
        # filtering a qubit's incidence list preserves the relative order
        # of the global list, exactly like filtering the global list did.
        self._pair_incidence: Dict[int, List[int]] = {q: [] for q in self.qubits}
        for index, (a, b) in enumerate(self.pairs):
            self._pair_incidence[a].append(index)
            self._pair_incidence[b].append(index)
        self._triple_incidence: Dict[int, List[int]] = {q: [] for q in self.qubits}
        for index, (j, i, k) in enumerate(self.triples):
            self._triple_incidence[j].append(index)
            self._triple_incidence[i].append(index)
            self._triple_incidence[k].append(index)

        # Incrementally maintained unassigned-member counts per connection.
        self._pair_unassigned = [2] * len(self.pairs)
        self._triple_unassigned = [3] * len(self.triples)
        self._assigned: Set[int] = set()

        self.candidates: np.ndarray = candidate_frequencies(allocator.frequency_step_ghz)
        mid = middle_frequency()
        # Tie-break distances in whole candidate-grid steps: float |cand -
        # mid| would order exactly mid-symmetric candidates by rounding
        # noise instead of by the documented lower-frequency preference.
        self._mid_distance = np.abs(
            np.rint((self.candidates - mid) / allocator.frequency_step_ghz)
        ).astype(np.int64)

        self._simulator = YieldSimulator(
            trials=allocator.local_trials,
            sigma_ghz=allocator.sigma_ghz,
            delta_ghz=allocator.delta_ghz,
            thresholds=allocator.thresholds,
        )
        self.scorer = _LocalRegionScorer(self)

    # -- assignment bookkeeping ------------------------------------------------

    def mark_assigned(self, qubit: int) -> None:
        """Record ``qubit`` as assigned; decrement its connections' counters."""
        if qubit in self._assigned:
            return
        self._assigned.add(qubit)
        for index in self._pair_incidence[qubit]:
            self._pair_unassigned[index] -= 1
        for index in self._triple_incidence[qubit]:
            self._triple_unassigned[index] -= 1

    def traversal_order(self) -> List[int]:
        """Breadth-first order over the coupling graph from the centre qubit.

        Qubits unreachable from the centre (possible only for degenerate
        layouts) are appended afterwards in index order so every qubit
        gets a frequency.
        """
        order: List[int] = []
        visited: Set[int] = {self.center}
        queue = deque([self.center])
        while queue:
            current = queue.popleft()
            order.append(current)
            for neighbor in self.neighbors[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
        for qubit in self.qubits:
            if qubit not in visited:
                order.append(qubit)
        return order

    # -- local-region scoring --------------------------------------------------

    def local_connections(
        self, qubit: int
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]:
        """Connections through which ``qubit`` can collide with assigned qubits.

        A connection qualifies when every member other than ``qubit``
        already has a frequency — during the BFS walk ``qubit`` itself is
        the one unassigned member; during refinement sweeps (``qubit``
        re-optimized against the complete assignment) no member is.
        """
        want = 0 if qubit in self._assigned else 1
        local_pairs = [
            self.pairs[index]
            for index in self._pair_incidence[qubit]
            if self._pair_unassigned[index] == want
        ]
        local_triples = [
            self.triples[index]
            for index in self._triple_incidence[qubit]
            if self._triple_unassigned[index] == want
        ]
        return local_pairs, local_triples

    def noise_for(self, qubit: int, region_size: int) -> np.ndarray:
        """The qubit's CRN fabrication-noise tensor (drawn once per key).

        Seeded exactly as the pre-refactor allocator seeded its per-qubit
        simulator, so a fresh draw and a cached reuse are bit-identical.
        The region size participates in the key because numpy fills
        ``(trials, size)`` tensors in C order: the same seed yields
        different column contents for different sizes.  Tensors are
        served from a process-wide read-only cache: a sweep's many
        architectures re-request identical draws for every qubit they
        share with an earlier allocation.
        """
        allocator = self.allocator
        key = (
            allocator.seed, allocator.sigma_ghz, allocator.local_trials,
            qubit, region_size,
        )
        return _shared_noise(
            key, allocator.sigma_ghz, allocator.local_trials, qubit, region_size
        )


class _LocalRegionScorer:
    """Ranks one qubit's candidate frequencies on its local collision region.

    Owns the candidate-ranking half of Algorithm 3's inner loop: assemble
    the scanned qubit's local region (the assigned qubits it can collide
    with), score every candidate's joint failed-trial count against the
    qubit's CRN noise tensor, and apply the documented mid-band
    tie-break.  Rankings take the screened or the direct path of the
    module docstring (the direct one also for threshold geometries the
    interval screen does not support).  Winner preservation is exact:
    every candidate achieving the minimum failure count is known with
    its exact joint count, so the tie set — and therefore the tie-break
    — never changes.
    """

    def __init__(self, context: "_AllocationContext") -> None:
        self._context = context
        allocator = context.allocator
        # Everything the local simulation reads besides the per-call
        # region content; part of every ranking-memo key.
        self._memo_prefix = (
            allocator.seed, allocator.sigma_ghz, allocator.local_trials,
            allocator.frequency_step_ghz, allocator.delta_ghz,
            allocator.thresholds,
        )

    def best_frequencies_for(
        self,
        qubits: List[int],
        frequencies: Dict[int, float],
    ) -> Dict[int, float]:
        """Winning frequencies for a wave of mutually independent qubits.

        The cross-qubit batched ranking path: every qubit of the wave is
        ranked against the *same* assignment state, and all rankings the
        memo cannot answer screen through one fused merge-kernel call
        (:meth:`~repro.collision.yield_simulator.YieldSimulator.screened_failure_counts_batch`).
        Winners are bit-identical to ranking the wave one qubit at a
        time; the caller guarantees independence (no two wave members
        share a collision connection, see
        :attr:`_AllocationContext.conflicts`), which makes the shared
        state legitimate.
        """
        winners: Dict[int, float] = {}
        pending: List[_RankingRequest] = []
        for qubit in qubits:
            winner, request = self._resolve(qubit, frequencies)
            if request is None:
                winners[qubit] = winner
            else:
                pending.append(request)
        if not pending:
            return winners
        screened_batch = self._context._simulator.screened_failure_counts_batch(
            self._context.candidates,
            [
                (request.qubit_index, request.base, request.pair_idx,
                 request.triple_idx, request.noise)
                for request in pending
            ],
        )
        for request, screened in zip(pending, screened_batch):
            winners[request.qubit] = self._finish(request, screened)
        return winners

    def _resolve(
        self,
        qubit: int,
        frequencies: Dict[int, float],
    ) -> Tuple[Optional[float], Optional["_RankingRequest"]]:
        """Answer a ranking from structure/memo, or assemble its region.

        Returns ``(winner, None)`` when no simulation is needed (isolated
        qubit, or ranking-memo hit) and ``(None, request)`` with the
        assembled region otherwise.
        """
        context = self._context
        local_pairs, local_triples = context.local_connections(qubit)
        if not local_pairs and not local_triples:
            # Isolated qubit (no assigned neighbour yet): the middle of the
            # band is as good as any other choice.
            return middle_frequency(), None

        members: Set[int] = set()
        for pair in local_pairs:
            members.update(pair)
        for triple in local_triples:
            members.update(triple)
        members.discard(qubit)
        memo_key = (
            self._memo_prefix,
            qubit,
            tuple(local_pairs),
            tuple(local_triples),
            tuple(frequencies[member] for member in sorted(members)),
        )
        winner = _RANKING_MEMO.get(memo_key)
        if winner is not None:
            return winner, None

        region: Set[int] = {qubit}
        for a, b in local_pairs:
            region.update((a, b))
        for j, i, k in local_triples:
            region.update((j, i, k))
        region_order = sorted(region)
        index_of = {q: i for i, q in enumerate(region_order)}
        qubit_index = index_of[qubit]
        base = np.array([frequencies.get(q, 0.0) if q != qubit else 0.0
                         for q in region_order])
        pair_idx = np.array(
            [(index_of[a], index_of[b]) for a, b in local_pairs], dtype=int
        ).reshape(-1, 2)
        triple_idx = np.array(
            [(index_of[j], index_of[i], index_of[k]) for j, i, k in local_triples],
            dtype=int,
        ).reshape(-1, 3)

        noise = context.noise_for(qubit, len(region_order))
        return None, _RankingRequest(
            qubit, memo_key, qubit_index, base, pair_idx, triple_idx, noise,
        )

    def _finish(self, request: "_RankingRequest", screened: ScreenedCounts) -> float:
        """Apply the documented tie-break and memoize the winner."""
        # Failure counts are integers, so the 1e-12 yield tolerance reduces
        # to exact count equality; the tie set is ranked by mid-band
        # distance, lower frequency first among equally distant candidates
        # (tie indices ascend and argmin returns the first minimum).  Every
        # minimum-count candidate is known exactly, so the tie set over
        # known counts equals the unscreened tie set.
        failures, known = screened.counts, screened.known
        tie_set = np.flatnonzero(known & (failures == failures[known].min()))
        context = self._context
        winner = float(context.candidates[tie_set[np.argmin(context._mid_distance[tie_set])]])
        _bounded_put(_RANKING_MEMO, _RANKING_MEMO_LIMIT, request.memo_key, winner)
        return winner


class _RankingRequest:
    """One assembled local-region ranking awaiting simulation."""

    __slots__ = (
        "qubit", "memo_key", "qubit_index", "base", "pair_idx", "triple_idx", "noise",
    )

    def __init__(self, qubit, memo_key, qubit_index, base, pair_idx, triple_idx, noise):
        self.qubit = qubit
        self.memo_key = memo_key
        self.qubit_index = qubit_index
        self.base = base
        self.pair_idx = pair_idx
        self.triple_idx = triple_idx
        self.noise = noise


class AllocationStrategy:
    """Base class of pluggable Algorithm 3 search strategies.

    A strategy receives the per-architecture :class:`_AllocationContext`
    and returns the complete frequency assignment.  Implementations must
    be deterministic functions of the context (the allocator's seed enters
    through the context's noise cache).
    """

    name: str = ""

    def assign(self, context: _AllocationContext) -> Dict[int, float]:
        raise NotImplementedError

    # -- shared skeleton -------------------------------------------------------

    def _bfs_assign(
        self, context: _AllocationContext
    ) -> Tuple[Dict[int, float], List[int]]:
        """The paper's centre-out BFS greedy walk; returns (assignment, order).

        The walk processes the BFS order in waves (:meth:`_next_wave`):
        each wave is ranked through one fused batched kernel call and then
        assigned wholesale.  Winners are bit-identical to the sequential
        walk — see :meth:`_next_wave` for why.
        """
        frequencies: Dict[int, float] = {context.center: middle_frequency()}
        context.mark_assigned(context.center)
        order = context.traversal_order()
        remaining = [qubit for qubit in order if qubit not in frequencies]
        while remaining:
            wave, remaining = self._next_wave(context, remaining)
            winners = context.scorer.best_frequencies_for(wave, frequencies)
            for qubit in wave:
                frequencies[qubit] = winners[qubit]
                context.mark_assigned(qubit)
        return frequencies, order

    @staticmethod
    def _next_wave(
        context: _AllocationContext, remaining: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Split a ranking queue into ``(wave, deferred)`` for batching.

        Greedy independent-set in queue order: a qubit joins the wave
        only when it conflicts (shares a collision connection, see
        :attr:`_AllocationContext.conflicts`) with *neither* an earlier
        wave member *nor* an earlier deferred qubit.  That invariant
        makes the batched schedule bit-identical to the sequential one:
        for any qubit ``q``, every conflicting qubit ahead of ``q`` in
        the queue lands in a strictly earlier wave (``q`` would have
        been deferred otherwise), and every conflicting qubit behind
        ``q`` lands in a strictly later wave — so at ``q``'s ranking the
        assigned-and-updated state of its local region is exactly the
        sequential one, and wave members never read each other's
        results at all.
        """
        wave: List[int] = []
        wave_set: Set[int] = set()
        deferred: List[int] = []
        deferred_set: Set[int] = set()
        for qubit in remaining:
            conflicts = context.conflicts[qubit]
            if conflicts.isdisjoint(wave_set) and conflicts.isdisjoint(deferred_set):
                wave.append(qubit)
                wave_set.add(qubit)
            else:
                deferred.append(qubit)
                deferred_set.add(qubit)
        return wave, deferred


class BfsGreedyStrategy(AllocationStrategy):
    """The paper-exact Algorithm 3: centre-out BFS over the full grid."""

    name = "bfs-greedy"

    def assign(self, context: _AllocationContext) -> Dict[int, float]:
        frequencies, _order = self._bfs_assign(context)
        return frequencies


class CoordinateDescentStrategy(AllocationStrategy):
    """BFS greedy plus coordinate-descent refinement sweeps.

    Each sweep revisits every qubit in BFS order (the centre included —
    its initial mid-band choice is only a heuristic starting point) and
    re-optimizes its frequency against the now-complete assignment of its
    local region.  The assignment is updated in place: a re-optimized
    qubit keeps its current frequency in every later qubit's context, and
    no per-qubit copy of the full assignment is ever made.
    """

    name = "coordinate-descent"

    def assign(self, context: _AllocationContext) -> Dict[int, float]:
        frequencies, order = self._bfs_assign(context)
        passes = max(1, context.allocator.refinement_passes)
        for _sweep in range(passes):
            # Same wave discipline as the BFS walk: non-conflicting qubits
            # never read each other's refined frequencies, so ranking a
            # wave against the pre-wave assignment and applying its
            # updates together is bit-identical to the in-place
            # sequential sweep.
            remaining = list(order)
            while remaining:
                wave, remaining = self._next_wave(context, remaining)
                winners = context.scorer.best_frequencies_for(wave, frequencies)
                for qubit in wave:
                    frequencies[qubit] = winners[qubit]
        return frequencies


#: Registry of the built-in strategies, by name.
ALLOCATION_STRATEGIES: Dict[str, AllocationStrategy] = {
    strategy.name: strategy
    for strategy in (
        BfsGreedyStrategy(),
        CoordinateDescentStrategy(),
    )
}


def resolve_strategy(
    strategy: Union[str, AllocationStrategy], refinement_passes: int = 0
) -> AllocationStrategy:
    """Resolve a strategy name (or instance) to an :class:`AllocationStrategy`.

    ``refinement_passes > 0`` upgrades the default ``bfs-greedy`` choice
    to ``coordinate-descent``, preserving the pre-strategy behaviour of
    the ``refinement_passes`` knob.
    """
    if isinstance(strategy, AllocationStrategy):
        return strategy
    name = str(strategy)
    if name == BfsGreedyStrategy.name and refinement_passes > 0:
        name = CoordinateDescentStrategy.name
    try:
        return ALLOCATION_STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(ALLOCATION_STRATEGIES))
        raise ValueError(
            f"unknown allocation strategy {strategy!r} (known: {known})"
        ) from None


@dataclass
class FrequencyAllocator:
    """Configuration of the Algorithm 3 frequency search.

    Attributes:
        sigma_ghz: Fabrication noise standard deviation used in the local
            yield simulations.
        local_trials: Monte Carlo trials per (qubit, candidate frequency)
            evaluation.  The local regions are tiny (a handful of qubits),
            so a modest trial count already separates good candidates from
            bad ones; the final full-chip yield is always re-estimated with
            the full simulator.
        frequency_step_ghz: Spacing of the candidate frequency grid
            (0.01 GHz in the paper).
        delta_ghz: Qubit anharmonicity.
        thresholds: Collision thresholds.
        seed: Base seed; the noise used to compare candidates for a given
            qubit is common across candidates (common random numbers), so
            the argmax is not dominated by sampling noise.
        refinement_passes: Number of coordinate-descent sweeps run after
            the centre-out BFS assignment.  The default of 0 reproduces
            the paper's Algorithm 3 exactly; non-zero values select the
            ``coordinate-descent`` strategy.
        strategy: Allocation strategy name or instance (see
            :data:`ALLOCATION_STRATEGIES`).  ``bfs-greedy`` is the
            paper-exact default.
    """

    sigma_ghz: float = DEFAULT_SIGMA_GHZ
    local_trials: int = 2000
    frequency_step_ghz: float = 0.01
    delta_ghz: float = ANHARMONICITY_GHZ
    thresholds: CollisionThresholds = DEFAULT_THRESHOLDS
    seed: int = 2020
    refinement_passes: int = 0
    strategy: Union[str, AllocationStrategy] = BfsGreedyStrategy.name

    def allocate(self, architecture: Architecture) -> Dict[int, float]:
        """Assign a frequency to every qubit of ``architecture``.

        The input architecture's existing frequencies (if any) are ignored;
        only its layout and coupling graph are used, as in the paper where
        "the input of our algorithm is only the qubit location and
        connection generated from the previous two subroutines".
        """
        if not architecture.qubits:
            raise ValueError("architecture has no qubits")
        _metrics.increment("design/allocation_calls")
        context = _AllocationContext(self, architecture)
        strategy = resolve_strategy(self.strategy, self.refinement_passes)
        with _metrics.timer("design/allocate"):
            return strategy.assign(context)


def allocate_frequencies(
    architecture: Architecture,
    sigma_ghz: float = DEFAULT_SIGMA_GHZ,
    local_trials: int = 2000,
    seed: int = 2020,
    refinement_passes: int = 0,
    strategy: Union[str, AllocationStrategy] = BfsGreedyStrategy.name,
) -> Dict[int, float]:
    """One-call convenience wrapper around :class:`FrequencyAllocator`."""
    allocator = FrequencyAllocator(
        sigma_ghz=sigma_ghz,
        local_trials=local_trials,
        seed=seed,
        refinement_passes=refinement_passes,
        strategy=strategy,
    )
    return allocator.allocate(architecture)
