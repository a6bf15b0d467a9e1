"""Chaos matrix: seeded fault schedules against real supervised sweeps.

Every scenario arms a deterministic :mod:`repro.faults` plan and runs
the full CLI sweep under supervision, then asserts the two contracts of
the fault-tolerance layer:

* **byte identity** — for every non-poisoned task the sweep output is
  byte-identical to the fault-free baseline, whatever was killed,
  hung, or demoted along the way;
* **accounting** — every retry, crash, kill, demotion, and quarantine
  shows up in the ``--metrics-out`` counters and the structured
  ``--failures-out`` report.

These tests run full (fast-settings) sweeps with real worker kills, so
they carry the ``chaos`` marker: run them alone with ``-m chaos``.  The
checkpoint-backend matrix honors ``REPRO_CHAOS_STORES`` (comma list,
default ``sharded,sqlite``) so CI can shard the matrix across jobs.
"""

import json
import os

import pytest

from repro.cli import main
from repro.design import reset_shared_caches
from repro.evaluation import (
    ExperimentConfig,
    SweepExecutor,
    generation_task_key,
    point_task_key,
)
from repro.evaluation import parallel
from repro.evaluation.checkpoint import SweepCheckpoint
from repro.faults import FaultPlan, FaultSpec, write_plan
from repro.runtime.config import RuntimeConfig

pytestmark = pytest.mark.chaos

BENCHMARK = "sym6_145"
CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_LAYOUT_ONLY)
FAST = [
    "--trials", "250", "--local-trials", "60",
    "--configs", "eff-full", "eff-layout-only",
]
API_SETTINGS = dict(yield_trials=250, frequency_local_trials=60)

STORES = os.environ.get("REPRO_CHAOS_STORES", "sharded,sqlite").split(",")


def _store_arg(kind, tmp_path):
    if kind == "sharded":
        return f"sharded:{tmp_path / 'ckpt'}"
    return str(tmp_path / "ckpt.sqlite")


def _clear_process_state():
    parallel.reset_worker_state()
    reset_shared_caches()


def _plan_path(tmp_path, specs, seed=7):
    path = tmp_path / "fault-plan.json"
    write_plan(FaultPlan(seed=seed, faults=tuple(specs)), path)
    return str(path)


def _run_sweep(tmp_path, name, extra, expect=0):
    """One CLI sweep; returns (output bytes, metrics counters dict)."""
    _clear_process_state()
    out = tmp_path / f"{name}.json"
    metrics_path = tmp_path / f"{name}-metrics.json"
    rc = main([
        "sweep", BENCHMARK, *FAST, "--jobs", "2",
        "--output", str(out), "--metrics-out", str(metrics_path), *extra,
    ])
    assert rc == expect, f"sweep {name!r} exited {rc}, expected {expect}"
    report = json.loads(metrics_path.read_text(encoding="utf-8"))
    return out.read_bytes(), report["counters"], report["derived"]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The fault-free sweep's report bytes — the byte-identity oracle."""
    _clear_process_state()
    out = tmp_path_factory.mktemp("chaos-baseline") / "base.json"
    assert main(["sweep", BENCHMARK, *FAST, "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def task_digests():
    """Content digests for targeted fault plans, derived exactly as the
    supervisor derives them."""
    _clear_process_state()
    settings = RuntimeConfig(**API_SETTINGS)
    executor = SweepExecutor(settings=settings, configs=CONFIGS, jobs=1)
    points = executor.enumerate_points([BENCHMARK])
    return {
        "generation": generation_task_key(BENCHMARK, "eff-full", settings),
        "points": [
            point_task_key(
                p.benchmark, p.config.value, p.arch_index, p.architecture, settings,
            )
            for p in points
        ],
    }


def test_supervised_fault_free_matches_plain_executor(tmp_path, baseline):
    """A --jobs 2 sweep with no supervision flag is supervised."""
    payload, counters, derived = _run_sweep(tmp_path, "plain", [])
    assert payload == baseline
    assert counters["supervisor/tasks"] == 7  # 2 generation + 5 points
    assert "supervisor/retries" not in counters
    assert derived["supervisor/quarantine_fraction"] == 0.0


def test_kill_mid_task_retries_to_identical_bytes(tmp_path, baseline):
    """SIGKILL on every task's first attempt: all retried, zero drift."""
    plan = _plan_path(tmp_path, [
        FaultSpec(site="generate:start", kind="kill"),
        FaultSpec(site="evaluate:start", kind="kill"),
    ])
    failures_out = tmp_path / "failures.json"
    payload, counters, _ = _run_sweep(tmp_path, "kill", [
        "--fault-plan", plan, "--failures-out", str(failures_out),
    ])
    assert payload == baseline
    assert counters["supervisor/worker_crashes"] == 7
    assert counters["supervisor/retries"] == 7
    assert counters["supervisor/worker_restarts"] >= 7
    assert counters["supervisor/backend_demotions"] == 7
    report = json.loads(failures_out.read_text(encoding="utf-8"))
    assert report["quarantined"] == []  # written even when empty


def test_hang_past_deadline_is_killed_and_retried(tmp_path, baseline):
    plan = _plan_path(tmp_path, [
        FaultSpec(site="evaluate:start", kind="hang", delay_s=30.0),
    ])
    payload, counters, _ = _run_sweep(tmp_path, "hang", [
        "--fault-plan", plan, "--task-deadline", "1.0",
    ])
    assert payload == baseline
    assert counters["supervisor/deadline_kills"] == 5
    assert counters["supervisor/retries"] == 5


def test_gil_holding_hang_trips_heartbeat_timeout(tmp_path, baseline, task_digests):
    """A wedge that never releases the GIL silences heartbeats too."""
    target = task_digests["points"][0][:12]
    plan = _plan_path(tmp_path, [
        FaultSpec(site="evaluate:start", kind="hang", task=target,
                  delay_s=5.0, hold_gil=True),
    ])
    payload, counters, _ = _run_sweep(tmp_path, "wedge", [
        "--fault-plan", plan, "--heartbeat-timeout", "0.8",
    ])
    assert payload == baseline
    assert counters["supervisor/heartbeat_timeouts"] == 1
    assert counters["supervisor/retries"] == 1


def test_native_kernel_abort_demotes_to_numpy(tmp_path, baseline, task_digests):
    """A segfault inside the screening kernel costs speed, never results."""
    target = task_digests["generation"][:12]
    plan = _plan_path(tmp_path, [
        FaultSpec(site="native-kernel", kind="segv", task=target),
    ])
    payload, counters, _ = _run_sweep(tmp_path, "segv", ["--fault-plan", plan])
    assert payload == baseline
    assert counters["supervisor/worker_crashes"] == 1
    assert counters["supervisor/backend_demotions"] == 1
    assert counters["supervisor/retries"] == 1


@pytest.mark.parametrize("store", STORES)
def test_poison_task_is_quarantined_with_partial_results(
    tmp_path, baseline, task_digests, store,
):
    """A task that dies on *every* attempt is quarantined, reported, and
    recomputed cleanly on the next (fault-free) resume."""
    poisoned = task_digests["points"][0]
    checkpoint = _store_arg(store, tmp_path)
    plan = _plan_path(tmp_path, [
        FaultSpec(site="evaluate:start", kind="exit", task=poisoned[:12],
                  attempts=None),
    ])
    failures_out = tmp_path / "failures.json"
    payload, counters, derived = _run_sweep(tmp_path, "poison", [
        "--fault-plan", plan, "--max-task-retries", "1",
        "--checkpoint", checkpoint, "--failures-out", str(failures_out),
    ], expect=3)
    assert payload != baseline  # one point is genuinely missing
    assert counters["supervisor/quarantined_tasks"] == 1
    assert counters["supervisor/worker_crashes"] == 2
    assert derived["supervisor/quarantine_fraction"] == pytest.approx(1 / 7)

    report = json.loads(failures_out.read_text(encoding="utf-8"))
    assert report["format"] == "repro-sweep-failures"
    (item,) = report["quarantined"]
    assert item["key"] == poisoned
    assert item["task"] == "point" and item["benchmark"] == BENCHMARK
    assert item["attempts"] == 2
    assert [f["reason"] for f in item["failures"]] == ["crash", "crash"]
    # The retry after the first crash ran demoted to the numpy backend.
    assert item["failures"][1]["backend"] == "numpy"

    # The quarantine is recorded in the checkpoint store itself.
    recorded = SweepCheckpoint(checkpoint)
    recorded.load()
    assert [f["key"] for f in recorded.failures()] == [poisoned]

    # Next run, no fault: the poisoned task recomputes and the resumed
    # sweep output is byte-identical to the never-faulted baseline.
    _clear_process_state()
    out = tmp_path / "healed.json"
    assert main([
        "sweep", BENCHMARK, *FAST,
        "--checkpoint", checkpoint, "--resume", "--output", str(out),
    ]) == 0
    assert out.read_bytes() == baseline


def test_torn_checkpoint_salvage_resumes_byte_identical(tmp_path, baseline):
    """A checkpoint torn mid-append is salvaged, not fatal, on --resume."""
    checkpoint = tmp_path / "ck.json"
    payload, _, _ = _run_sweep(tmp_path, "record", [
        "--checkpoint", str(checkpoint),
    ])
    assert payload == baseline
    intact = checkpoint.read_bytes()
    checkpoint.write_bytes(intact[:-40])  # the torn trailing record

    _clear_process_state()
    out = tmp_path / "salvaged.json"
    assert main([
        "sweep", BENCHMARK, *FAST,
        "--checkpoint", str(checkpoint), "--resume", "--output", str(out),
    ]) == 0
    assert out.read_bytes() == baseline
    quarantined = list(tmp_path.glob("ck.json.quarantine-*"))
    assert len(quarantined) == 1
    assert quarantined[0].read_bytes() == intact[:-40]
