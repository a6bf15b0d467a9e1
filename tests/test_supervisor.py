"""Unit tests for the sweep supervisor (repro.evaluation.supervisor).

The heavy end-to-end scenarios (real sweeps under seeded fault plans)
live in ``tests/test_chaos.py``; this module covers the policy algebra,
the failure-record shapes, report ordering, and the supervision loop
itself driven by tiny test doubles rebound as the task functions — cheap
enough to run in the default suite.
"""

import functools
import itertools
import os

import pytest

from repro import faults
from repro.cli import main
from repro.design import reset_shared_caches
from repro.evaluation import parallel
from repro.evaluation.checkpoint import generation_task_key
from repro.evaluation.configs import ExperimentConfig
from repro.evaluation.parallel import SweepExecutor
from repro.evaluation.supervisor import (
    BACKOFF_CAP_S,
    FAILURE_REPORT_FORMAT,
    FAILURE_REPORT_VERSION,
    QuarantinedTask,
    SupervisorPolicy,
    TaskFailure,
    _pick_task,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import diff_snapshots, global_metrics

# -- policy ------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError, match="max_task_retries"):
        SupervisorPolicy(max_task_retries=-1)
    for backoff in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="backoff_base_s"):
            SupervisorPolicy(backoff_base_s=backoff)


def test_backoff_is_deterministic_exponential_with_cap():
    policy = SupervisorPolicy(backoff_base_s=BACKOFF_CAP_S / 4)
    assert policy.backoff_delay(1) == pytest.approx(BACKOFF_CAP_S / 4)
    assert policy.backoff_delay(2) == pytest.approx(BACKOFF_CAP_S / 2)
    assert policy.backoff_delay(3) == pytest.approx(BACKOFF_CAP_S)
    assert policy.backoff_delay(4) == pytest.approx(BACKOFF_CAP_S)  # capped
    assert policy.backoff_delay(10) == pytest.approx(BACKOFF_CAP_S)


# -- failure records ---------------------------------------------------------


def _quarantined(key="k", benchmark="b", config="c", arch_index=0, task="point"):
    return QuarantinedTask(
        task=task, key=key, benchmark=benchmark, config=config,
        arch_index=arch_index, attempts=3,
        failures=[TaskFailure("crash", "worker exited with code -9", 0, None)],
    )


def test_failure_record_shape():
    record = _quarantined().record()
    assert record == {
        "task": "point", "key": "k", "benchmark": "b", "config": "c",
        "arch_index": 0, "attempts": 3,
        "failures": [{
            "reason": "crash", "detail": "worker exited with code -9",
            "attempt": 0, "backend": None,
        }],
    }


def test_failure_report_envelope_and_ordering():
    executor = SweepExecutor(settings=RuntimeConfig())
    executor.failures.extend([
        _quarantined(key="z", benchmark="b2", arch_index=4),
        _quarantined(key="a", benchmark="b1", arch_index=None, task="generation"),
        _quarantined(key="m", benchmark="b2", arch_index=1),
    ])
    report = executor.failure_report()
    assert report["format"] == FAILURE_REPORT_FORMAT
    assert report["version"] == FAILURE_REPORT_VERSION
    ordered = [(r["task"], r["benchmark"], r["arch_index"]) for r in report["quarantined"]]
    # generation sorts before point; within a kind, identity then index.
    assert ordered == [
        ("generation", "b1", None), ("point", "b2", 1), ("point", "b2", 4),
    ]


def test_empty_failure_report():
    executor = SweepExecutor(settings=RuntimeConfig())
    assert executor.failure_report()["quarantined"] == []


# -- benchmark-affine dispatch -----------------------------------------------


def test_pick_task_prefers_the_workers_own_group():
    groups = ["a", "a", "b", "b"]
    assert _pick_task({0, 1, 2, 3}, groups, 0, {0: "b", 1: "a"}) == 2
    assert _pick_task({0, 1, 3}, groups, 1, {0: "b", 1: "a"}) == 0


def test_pick_task_then_takes_a_group_no_other_worker_holds():
    groups = ["a", "a", "b", "c"]
    # A fresh worker skips the group worker 1 holds.
    assert _pick_task({0, 1, 2, 3}, groups, 0, {0: None, 1: "a"}) == 2
    # Own group drained: the lowest index of an unheld group.
    assert _pick_task({1, 3}, groups, 0, {0: "b", 1: "a"}) == 3


def test_pick_task_then_takes_any_group():
    groups = ["a", "a", "b", "b"]
    holdings = {0: None, 1: "a", 2: "b"}
    assert _pick_task({1, 3}, groups, 0, holdings) == 1
    assert _pick_task({3}, groups, 1, holdings) == 3


def test_pick_task_never_idles_while_a_task_is_eligible():
    groups = ["a", "b", "a", "c", "b"]
    states = (None, "a", "b", "c")
    for size in range(len(groups) + 1):
        for eligible in itertools.combinations(range(len(groups)), size):
            for own, other in itertools.product(states, states):
                picked = _pick_task(eligible, groups, 0, {0: own, 1: other})
                if eligible:
                    assert picked in eligible
                else:
                    assert picked is None


def test_pick_task_frees_a_retired_workers_group():
    groups = ["a", "b"]
    assert _pick_task({0, 1}, groups, 0, {0: None, 1: "a"}) == 1
    # Worker 1 retired; its replacement (worker 2) starts with no group.
    assert _pick_task({0, 1}, groups, 0, {0: None, 2: None}) == 0
    assert _pick_task({0, 1}, groups, 2, {0: "b", 2: None}) == 0


# -- the supervision loop, driven by rebound task functions ------------------
#
# Workers look the task function up by name on repro.evaluation.parallel at
# call time, and forked workers inherit the parent's module attributes, so
# a test double rebound there exercises the real dispatch/collect/retry
# machinery in milliseconds.  Tasks are generation-shaped tuples whose
# benchmark field is the dispatch group and whose config field carries a
# number.

SETTINGS = RuntimeConfig()


def _task(number, group="synthetic"):
    return (group, str(number), SETTINGS)


def _key(number, group="synthetic"):
    return generation_task_key(group, str(number), SETTINGS)


def _double(task):
    return int(task[1]) * 2, None


def _always_fail(task):
    raise ValueError(f"synthetic failure for task {task[1]}")


def _supervise(monkeypatch, func, numbers, groups=None, jobs=2, **policy_kwargs):
    """Run ``func`` as the generation task under supervision.

    ``groups[i]`` is task ``i``'s benchmark (default: one group for all).
    Returns the completed payloads (task order) and the quarantined tasks.
    """
    policy_kwargs.setdefault("backoff_base_s", 0.001)
    monkeypatch.setattr(parallel, "_generate_task", func)
    executor = SweepExecutor(
        settings=SETTINGS, jobs=jobs, policy=SupervisorPolicy(**policy_kwargs),
    )
    groups = groups or ["synthetic"] * len(numbers)
    tasks = [_task(n, group) for n, group in zip(numbers, groups)]
    payloads = executor._run_tasks("_generate_task", tasks)
    return payloads, executor.failures


def test_supervised_tasks_complete_in_index_order(monkeypatch):
    # One group, then interleaved groups with idle workers taking any group.
    for groups, jobs in ((None, 2), (["a", "b", "a", "b", "c"], 4)):
        before = global_metrics().snapshot()
        payloads, quarantined = _supervise(
            monkeypatch, _double, [1, 2, 3, 4, 5], groups=groups, jobs=jobs,
        )
        assert payloads == [2, 4, 6, 8, 10]
        assert quarantined == []
        delta = diff_snapshots(global_metrics().snapshot(), before)
        assert delta["counters"]["supervisor/tasks"] == 5
        assert "supervisor/retries" not in delta["counters"]


def test_failing_task_retries_then_quarantines(monkeypatch):
    before = global_metrics().snapshot()
    payloads, quarantined = _supervise(
        monkeypatch, _always_fail, [7], max_task_retries=1,
    )
    assert payloads == []
    assert len(quarantined) == 1
    item = quarantined[0]
    assert item.task == "generation" and item.key == _key(7)
    assert item.benchmark == "synthetic" and item.config == "7"
    assert item.arch_index is None
    assert item.attempts == 2  # first attempt + one retry
    assert [f.reason for f in item.failures] == ["error", "error"]
    assert all("synthetic failure" in f.detail for f in item.failures)
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/retries"] == 1
    assert delta["counters"]["supervisor/quarantined_tasks"] == 1


def test_quarantine_does_not_block_other_tasks(monkeypatch):
    payloads, quarantined = _supervise(monkeypatch, _double, [1, 2], max_task_retries=0)
    assert payloads == [2, 4]
    assert quarantined == []
    payloads, quarantined = _supervise(
        monkeypatch, _always_fail, [1, 2], max_task_retries=0,
    )
    assert payloads == []
    assert [item.config for item in quarantined] == ["1", "2"]


def test_worker_crash_is_detected_and_retried(monkeypatch):
    """A SIGKILL'd worker costs a retry and a restart, never the result.

    The plan is armed in the parent and inherited by forked workers; the
    kill fires inside the worker's task context, so the parent survives.
    """
    faults.reset()
    faults.arm(faults.FaultPlan(faults=(
        faults.FaultSpec(site="task:start", kind="kill", task=_key(1)),
    )))
    before = global_metrics().snapshot()
    try:
        payloads, quarantined = _supervise(monkeypatch, _double, [1, 2, 3])
        assert payloads == [2, 4, 6]
        assert quarantined == []
    finally:
        faults.reset()
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/worker_crashes"] == 1
    assert delta["counters"]["supervisor/retries"] == 1
    assert delta["counters"]["supervisor/worker_restarts"] >= 1
    assert delta["counters"]["supervisor/backend_demotions"] == 1


def test_grouped_worker_crash_is_retried_in_index_order(monkeypatch):
    """A crashed worker's group is released and its task still lands in order."""
    faults.reset()
    faults.arm(faults.FaultPlan(faults=(
        faults.FaultSpec(site="task:start", kind="kill", task=_key(4, "b")),
    )))
    before = global_metrics().snapshot()
    groups = ["a", "b", "a", "b", "a", "b", "c"]
    try:
        payloads, quarantined = _supervise(
            monkeypatch, _double, [1, 2, 3, 4, 5, 6, 7], groups=groups, jobs=3,
        )
        assert payloads == [2, 4, 6, 8, 10, 12, 14]
        assert quarantined == []
    finally:
        faults.reset()
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/worker_crashes"] == 1
    assert delta["counters"]["supervisor/retries"] == 1
    assert delta["counters"]["supervisor/backend_demotions"] == 1


def test_two_benchmark_sweep_is_byte_identical_across_jobs(tmp_path):
    """Two benchmarks over one, two and three workers write the same report,
    each run computed cold.

    At ``--jobs 3`` one worker holds neither benchmark's group to itself,
    so every dispatch rule runs.
    """
    sweep = ["sweep", "sym6_145", "UCCSD_ansatz_8", "--trials", "200",
             "--local-trials", "100", "--configs", "eff-full", "eff-layout-only"]
    reports = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.json"
        parallel.reset_worker_state()
        reset_shared_caches()
        assert main([*sweep, "--jobs", jobs, "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_run_sweep_raises_when_a_task_is_quarantined(monkeypatch):
    """``run_sweep`` never returns results with points silently missing."""
    monkeypatch.setattr(parallel, "_generate_task", _always_fail)
    with pytest.raises(RuntimeError, match="1 sweep task.*synthetic failure"):
        parallel.run_sweep(
            ["sym6_145"], jobs=2, settings=SETTINGS,
            configs=[ExperimentConfig("eff-full")],
        )


def test_run_attempt_reports_exceptions_not_raises(monkeypatch):
    from repro.evaluation.supervisor import _run_attempt

    monkeypatch.setattr(parallel, "_generate_task", _always_fail)
    status, payload, delta = _run_attempt("_generate_task", _task(3), _key(3), 0, None)
    assert status == "error"
    assert "synthetic failure for task 3" in payload
    assert delta is None
    monkeypatch.setattr(parallel, "_generate_task", _double)
    status, payload, delta = _run_attempt("_generate_task", _task(3), _key(3), 0, None)
    assert status == "done" and payload == 6


def test_demoted_attempt_routes_on_the_python_pass(monkeypatch):
    """A demoted attempt (``numpy`` forced) routes on the Python SABRE pass,
    with the swap count the default backend gives."""
    from repro.benchmarks import get_benchmark
    from repro.evaluation.supervisor import _run_attempt
    from repro.hardware import ibm_16q_2x8
    from repro.mapping import RoutingEngine
    from repro.mapping.sabre import SabreRouter

    circuit, chip = get_benchmark("sym6_145"), ibm_16q_2x8(False)

    def swaps():
        return RoutingEngine().route(circuit, chip, keep_routed_circuit=False).num_swaps

    python_passes = []
    reference_pass = SabreRouter._python_pass

    def counted_pass(self, *args):
        python_passes.append(1)
        return reference_pass(self, *args)

    default_swaps = swaps()
    monkeypatch.setattr(SabreRouter, "_python_pass", counted_pass)
    monkeypatch.setattr(parallel, "_generate_task", lambda task: (swaps(), None))
    status, payload, _ = _run_attempt("_generate_task", _task(1), _key(1), 0, "numpy")
    assert status == "done"
    assert payload == default_swaps
    assert python_passes


def test_demoted_attempt_estimates_yield_on_numpy(monkeypatch):
    """A demoted attempt (``numpy`` forced) counts full-chip survivors on
    the numpy loop, with the estimate the default backend gives."""
    from repro.collision import YieldSimulator
    from repro.evaluation.supervisor import _run_attempt
    from repro.hardware import ibm_16q_2x8

    chip = ibm_16q_2x8()

    def estimate():
        return YieldSimulator(trials=2000, seed=5).estimate(chip)

    numpy_counts = []
    reference_count = YieldSimulator._compacted_survivors

    def counted(self, *args):
        numpy_counts.append(1)
        return reference_count(self, *args)

    default_estimate = estimate()
    monkeypatch.setattr(YieldSimulator, "_compacted_survivors", counted)
    monkeypatch.setattr(parallel, "_generate_task", lambda task: (estimate(), None))
    status, payload, _ = _run_attempt("_generate_task", _task(1), _key(1), 0, "numpy")
    assert status == "done"
    assert payload == default_estimate
    assert numpy_counts


def test_traced_task_function_runs_in_workers(monkeypatch, tmp_path):
    """A tracer's rebinding of a task function is what supervised workers run.

    The wrapper is installed the way perfbench's tracer installs its own:
    a ``functools.wraps`` wrapper assigned to the module attribute.  It
    must run in the workers and leave the sweep report byte-identical.
    """
    sweep = ["sweep", "sym6_145", "--trials", "200", "--local-trials", "100",
             "--jobs", "2", "--task-deadline", "600"]
    plain = tmp_path / "plain.json"
    parallel.reset_worker_state()
    assert main([*sweep, "--output", str(plain)]) == 0

    markers = tmp_path / "markers"
    markers.mkdir()
    original = parallel._evaluate_task

    @functools.wraps(original)
    def traced(task):
        (markers / str(os.getpid())).touch()
        return original(task)

    monkeypatch.setattr(parallel, "_evaluate_task", traced)
    wrapped = tmp_path / "wrapped.json"
    parallel.reset_worker_state()
    assert main([*sweep, "--output", str(wrapped)]) == 0
    assert wrapped.read_bytes() == plain.read_bytes()
    pids = {int(path.name) for path in markers.iterdir()}
    assert pids and os.getpid() not in pids
