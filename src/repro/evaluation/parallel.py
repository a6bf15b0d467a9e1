"""Parallel design-space exploration: the ``SweepExecutor``.

The paper's evaluation scores hundreds of (benchmark x configuration x
architecture) points; each point is independent, so the sweep shards
them across ``multiprocessing`` workers.  Two properties make the
parallel sweep reproducible:

* **Deterministic point enumeration** — architectures are generated from
  seeded design flows, so every worker derives the same point list for a
  given benchmark/configuration regardless of scheduling.
* **Deterministic per-point seeds** — each point's yield simulator is
  seeded from the point's identity (benchmark, configuration,
  architecture index), never from worker or wall-clock state, so
  ``--jobs 8`` produces byte-identical results to ``--jobs 1``.

The executor parallelizes both phases of a sweep: architecture
*generation* (one task per benchmark x configuration, dominated by the
Algorithm 3 frequency search) and point *evaluation* (one task per
architecture, dominated by routing plus the Monte Carlo yield
simulation).  With ``jobs=1`` and no supervision policy the tasks run
in-process; otherwise every task runs in a worker of the supervised
loop (:mod:`repro.evaluation.supervisor`).  Under the default policy a
dead worker or a raising task costs a retry and, at worst, quarantines
the task; hung or wedged workers are detected only with a task deadline
or heartbeat timeout in the policy.

Worker state lives in :class:`~repro.runtime.session.Session` objects
found through the process-level registry, keyed by the config's content
digest (:func:`~repro.runtime.session.session_for`): every task of a
sweep shares one warm session per worker process, and an in-process
sweep (``jobs=1``) shares the session of the CLI command that launched
it.  Each task also returns the :mod:`repro.runtime.metrics` delta it
produced; the parent folds worker deltas into its own registry with
key-wise sums, so the merged ``--metrics-out`` totals are deterministic
for any task-completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro import faults
from repro.benchmarks.library import get_benchmark
from repro.collision.yield_simulator import YieldSimulator
from repro.design.engine import DesignEngine
from repro.evaluation.checkpoint import generation_task_key, point_task_key
from repro.evaluation.configs import ExperimentConfig, architectures_for_config
from repro.evaluation.experiment import (
    DEFAULT_CONFIGS,
    DataPoint,
    ExperimentResult,
    evaluate_point,
)
from repro.evaluation.supervisor import (
    FAILURE_REPORT_FORMAT,
    FAILURE_REPORT_VERSION,
    QuarantinedTask,
    SupervisorPolicy,
    supervise,
)
from repro.hardware.architecture import Architecture
from repro.mapping.engine import RoutingEngine
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import Snapshot, diff_snapshots, global_metrics
from repro.utils.rng import seed_for

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids a cycle
    from repro.runtime.session import Session


def _session_module():
    """``repro.runtime.session``, imported on first use.

    The session layer imports :mod:`repro.evaluation` for checkpoints and
    experiment types; deferring the reverse import keeps
    ``import repro.runtime.session`` working on its own instead of dying
    in a partially-initialized cycle.
    """
    from repro.runtime import session

    return session


@dataclass(frozen=True)
class SweepPoint:
    """One independent evaluation point of a design-space sweep."""

    benchmark: str
    config: ExperimentConfig
    arch_index: int
    architecture: Architecture


def sweep_point_seed(base_seed: int, benchmark: str, config_value: str, arch_index: int) -> int:
    """The yield-simulator seed of one sweep point.

    Derived solely from the point's identity (plus the sweep-level base
    seed), so the schedule that evaluated the point — worker id, arrival
    order, job count — can never influence the result.

    Per-point seeds keep every point reproducible in isolation: it can
    be re-run, retried, resumed or sharded on its own and still produce
    its sweep value, which is what makes ``--jobs N``, ``--resume`` and
    supervised retries byte-identical.  The cost is noisier
    cross-architecture yield comparisons: two architectures do not
    share one random-number stream, so two identical designs (say, two
    ``eff-rd-bus`` seeds that picked the same squares) get different
    yield estimates.  Candidate comparisons *inside* a point
    (Algorithm 3) still use common random numbers via
    ``estimate_batch``.
    """
    return seed_for("sweep-yield", base_seed, benchmark, config_value, arch_index)


# ---------------------------------------------------------------------------
# Worker task functions.  Workers look them up by attribute name on this
# module at call time (see _TASKS); they receive plain tuples and re-derive
# circuits/profiles locally to keep the pickled payload small.
#
# All process-local worker state (engines, caches, checkpoints) lives in
# runtime Sessions keyed by the config's content digest — store paths
# canonicalized, so relative/symlink aliases of one cache file share one
# warm engine per process.  Sessions are transparent: engine reuse can
# never change a sweep value, so ``--jobs N`` stays byte-identical for
# any N regardless of which points land in which process.
# ---------------------------------------------------------------------------


def _worker_session(settings: RuntimeConfig) -> Session:
    """This process's session for ``settings`` (created on first use)."""
    return _session_module().session_for(settings)


def _worker_engine(settings: RuntimeConfig) -> RoutingEngine:
    """The session-owned routing engine, warm-loaded from the persistent cache."""
    return _worker_session(settings).routing_engine


def _worker_design_engine(settings: RuntimeConfig) -> DesignEngine:
    """The session-owned design engine, warm-loaded from the persistent cache."""
    return _worker_session(settings).design_engine


def reset_worker_state() -> None:
    """Drop every session this process built (engines, caches, checkpoints).

    Test-isolation hook: after this, the next task builds cold state from
    scratch, exactly like a freshly forked worker with no inherited
    sessions.
    """
    _session_module().reset_process_sessions()


def active_routing_engines() -> List[RoutingEngine]:
    """Routing engines constructed by this process's sessions (tests).

    Lazy construction makes this a meaningful probe: a fully-warm resumed
    sweep restores every point from the checkpoint before any routing
    engine exists, so this stays empty.
    """
    return [
        session._routing_engine
        for session in _session_module().process_sessions()
        if session.has_routing_engine
    ]


def _generate_task(
    task: Tuple[str, str, RuntimeConfig],
) -> Tuple[List[Tuple[str, str, int, Architecture]], Snapshot]:
    benchmark, config_value, settings = task
    baseline = global_metrics().snapshot()
    rows = _generate_rows(benchmark, config_value, settings)
    return rows, diff_snapshots(global_metrics().snapshot(), baseline)


def _generate_rows(
    benchmark: str, config_value: str, settings: RuntimeConfig,
) -> List[Tuple[str, str, int, Architecture]]:
    session = _worker_session(settings)
    checkpoint = session.checkpoint
    task_key = None
    if checkpoint is not None:
        task_key = generation_task_key(benchmark, config_value, settings)
        if settings.resume:
            recorded = checkpoint.generation_rows(task_key)
            if recorded is not None:
                # Restored before the design engine even exists: a resumed
                # generation task runs zero Algorithm 3 searches.
                return recorded
    faults.maybe_inject("generate:start")
    circuit = get_benchmark(benchmark)
    config = ExperimentConfig(config_value)
    engine = session.design_engine
    architectures = architectures_for_config(
        circuit,
        config,
        random_bus_seeds=settings.random_bus_seeds,
        frequency_local_trials=settings.frequency_local_trials,
        engine=engine,
        allocation_strategy=settings.allocation_strategy,
    )
    # Merge freshly computed frequency plans back immediately: sweep
    # workers have no end-of-sweep hook, and the locked merge keeps
    # concurrent workers from dropping each other's entries — so even
    # ``sweep --jobs N`` leaves the cache file complete.  Tasks served
    # entirely warm (no new stage misses since the last merge) skip the
    # rewrite inside persist_design.
    session.persist_design()
    rows = [
        (benchmark, config_value, index, architecture)
        for index, architecture in enumerate(architectures)
        if architecture.num_qubits >= circuit.num_qubits
    ]
    if checkpoint is not None:
        checkpoint.record_generation(task_key, rows)
    return rows


def _evaluate_task(
    task: Tuple[str, str, int, Architecture, RuntimeConfig],
) -> Tuple[DataPoint, Snapshot]:
    benchmark, config_value, arch_index, architecture, settings = task
    baseline = global_metrics().snapshot()
    point = _evaluate_one(benchmark, config_value, arch_index, architecture, settings)
    return point, diff_snapshots(global_metrics().snapshot(), baseline)


def _evaluate_one(
    benchmark: str, config_value: str, arch_index: int,
    architecture: Architecture, settings: RuntimeConfig,
) -> DataPoint:
    session = _worker_session(settings)
    checkpoint = session.checkpoint
    task_key = None
    if checkpoint is not None:
        task_key = point_task_key(
            benchmark, config_value, arch_index, architecture, settings
        )
        if settings.resume:
            recorded = checkpoint.point(task_key)
            if recorded is not None:
                # Restored before the routing engine even exists: a resumed
                # point task routes nothing and runs no yield simulation.
                return recorded
    faults.maybe_inject("evaluate:start")
    circuit = get_benchmark(benchmark)
    profile = session.design_engine.profile(circuit)
    simulator = YieldSimulator(
        trials=settings.yield_trials,
        sigma_ghz=settings.sigma_ghz,
        seed=sweep_point_seed(settings.yield_seed, benchmark, config_value, arch_index),
    )
    point = evaluate_point(
        circuit, profile, architecture, ExperimentConfig(config_value), simulator, settings,
        engine=session.routing_engine,
    )
    # The routing-side mirror of _generate_rows' design-cache merge:
    # persist this worker's new routing results after every task, so
    # ``sweep --jobs N`` leaves a complete routing cache file without a
    # separate ``--jobs 1`` refresh pass.
    session.persist_routing()
    # Site between compute and checkpoint record: a kill here proves a
    # retry re-derives the identical point from its content-addressed
    # seeds rather than depending on the lost record.
    faults.maybe_inject("evaluate:computed")
    if checkpoint is not None:
        checkpoint.record_point(task_key, point)
    return point


def _generation_identity(task: Tuple) -> Tuple[str, str, str, Optional[int]]:
    return generation_task_key(*task), task[0], task[1], None


def _point_identity(task: Tuple) -> Tuple[str, str, str, Optional[int]]:
    return point_task_key(*task), task[0], task[1], task[2]


#: Per task function name: the kind its failure records carry, and its
#: identity — the checkpoint's content key (which also scopes fault
#: plans) plus benchmark, config and architecture index.
_TASKS = {
    "_generate_task": ("generation", _generation_identity),
    "_evaluate_task": ("point", _point_identity),
}


class SweepExecutor:
    """Shards (benchmark x config x architecture) points across processes.

    Args:
        settings: The run's :class:`~repro.runtime.config.RuntimeConfig`,
            shared by every point and pickled whole into worker tasks.
        configs: Experiment configurations to sweep (Figure 10's five by
            default).
        jobs: Worker process count.  Results are byte-identical for any
            value.
        policy: How the supervised workers retry and time out tasks.
            Tasks run in-process only when ``jobs == 1`` and this is
            None; otherwise every task runs in a supervised worker, under
            the default :class:`SupervisorPolicy` if none is given.

    Tasks that exhaust their retries accumulate on :attr:`failures`;
    :meth:`failure_report` renders them as the partial-result report.
    """

    def __init__(
        self,
        settings: Optional[RuntimeConfig] = None,
        configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
        jobs: int = 1,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.settings = settings or RuntimeConfig()
        self.configs = tuple(configs)
        self.jobs = int(jobs)
        self.policy = policy
        self.failures: List[QuarantinedTask] = []

    # -- phases ---------------------------------------------------------------

    def enumerate_points(self, benchmarks: Sequence[str]) -> List[SweepPoint]:
        """Generate every evaluation point of the sweep, in deterministic order.

        Architecture generation itself (layout + bus selection + Algorithm 3)
        is fanned out across workers, one task per benchmark x configuration.
        """
        tasks = [
            (benchmark, config.value, self.settings)
            for benchmark in benchmarks
            for config in self.configs
        ]
        raw = self._run_tasks("_generate_task", tasks)
        return [
            SweepPoint(benchmark, ExperimentConfig(config_value), index, architecture)
            for generated in raw
            for benchmark, config_value, index, architecture in generated
        ]

    def evaluate(self, points: Sequence[SweepPoint]) -> List[DataPoint]:
        """Score every point (routing + yield), fanned out across workers."""
        tasks = [
            (point.benchmark, point.config.value, point.arch_index,
             point.architecture, self.settings)
            for point in points
        ]
        return self._run_tasks("_evaluate_task", tasks)

    def run(self, benchmarks: Sequence[str]) -> Dict[str, ExperimentResult]:
        """The full sweep: enumerate, evaluate, and assemble per-benchmark results.

        Returns one :class:`ExperimentResult` per benchmark, keyed by the
        benchmark's canonical name (aliases and repeated names collapse
        onto one entry).
        """
        names = list(dict.fromkeys(get_benchmark(name).name for name in benchmarks))
        points = self.enumerate_points(names)
        data = self.evaluate(points)
        results = {name: ExperimentResult(benchmark=name) for name in names}
        for point in data:
            results[point.benchmark].points.append(point)
        for result in results.values():
            result.normalize()
        return results

    def failure_report(self) -> dict:
        """The structured partial-result report (``--failures-out``)."""
        quarantined = sorted(
            (item.record() for item in self.failures),
            key=lambda r: (
                r["task"], r["benchmark"], r["config"],
                -1 if r["arch_index"] is None else r["arch_index"], r["key"],
            ),
        )
        return {
            "format": FAILURE_REPORT_FORMAT,
            "version": FAILURE_REPORT_VERSION,
            "quarantined": quarantined,
        }

    # -- execution ------------------------------------------------------------

    def _run_tasks(self, name: str, tasks: List[Tuple]) -> List:
        """Run one phase's tasks and merge their metrics deltas.

        ``name`` is the task function's attribute name in this module,
        looked up at call time (here or in the worker), so a rebinding of
        the attribute is what runs.  Every task returns ``(payload,
        metrics_delta)``.  In-process tasks incremented this registry
        directly, so their deltas are dropped; a worker's deltas are
        folded in with key-wise sums, deterministic for any completion
        order.
        """
        if not tasks:
            return []
        if self.jobs == 1 and self.policy is None:
            func = globals()[name]
            return [func(task)[0] for task in tasks]
        kind, identity = _TASKS[name]
        identities = [identity(task) for task in tasks]
        outcomes, quarantined = supervise(
            name, tasks, [key for key, *_ in identities],
            [benchmark for _, benchmark, *_ in identities], self.jobs,
            self.policy or SupervisorPolicy(),
        )
        metrics = global_metrics()
        payloads = []
        for outcome in outcomes:
            if outcome is None:
                continue
            payload, delta = outcome
            if delta is not None:
                metrics.merge(delta)
            payloads.append(payload)
        for index, failures in quarantined.items():
            key, benchmark, config_value, arch_index = identities[index]
            item = QuarantinedTask(
                kind, key, benchmark, config_value, arch_index,
                attempts=len(failures), failures=failures,
            )
            self.failures.append(item)
            _worker_session(self.settings).record_task_failure(item.record())
        return payloads


def run_sweep(
    benchmarks: Sequence[str],
    jobs: int = 1,
    settings: Optional[RuntimeConfig] = None,
    configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
) -> Dict[str, ExperimentResult]:
    """One-call convenience wrapper around :class:`SweepExecutor`.

    Raises ``RuntimeError`` if a task was quarantined, rather than return
    results with its points missing; a :class:`SweepExecutor` accepts a
    partial sweep and leaves the tasks on ``failures``.
    """
    executor = SweepExecutor(settings=settings, configs=configs, jobs=jobs)
    results = executor.run(benchmarks)
    if executor.failures:
        quarantined = "; ".join(
            f"{item.task} task {item.key} ({item.failures[-1].detail.splitlines()[0]})"
            for item in executor.failures
        )
        raise RuntimeError(f"{len(executor.failures)} sweep task(s) quarantined: {quarantined}")
    return results
