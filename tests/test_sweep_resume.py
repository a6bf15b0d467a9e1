"""Resume byte-identity tests for checkpointed sweeps.

The contract under test: a sweep interrupted after K completed tasks and
restarted with ``--resume`` produces output *byte-identical* to an
uninterrupted run — for any ``--jobs`` count — and re-runs zero
Algorithm 3 Monte Carlo searches for the tasks already recorded.

The "interrupted" run is staged through the executor API (generate, then
evaluate only the first K points), which leaves the checkpoint store in
exactly the state a killed worker pool would: some tasks recorded, the
rest absent.
"""

import pytest

from repro.cli import main
from repro.design import reset_shared_caches
from repro.evaluation import ExperimentConfig, SweepExecutor
from repro.evaluation import parallel
from repro.runtime.config import RuntimeConfig

BENCHMARK = "sym6_145"
CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_LAYOUT_ONLY)

#: CLI flags matching :data:`API_SETTINGS` exactly — the checkpoint keys
#: are content digests over the settings, so both spellings of the sweep
#: must hash identically.
FAST = [
    "--trials", "250", "--local-trials", "60",
    "--configs", "eff-full", "eff-layout-only",
]

API_SETTINGS = dict(yield_trials=250, frequency_local_trials=60)


def _clear_process_state():
    """Reset every process-local engine/cache so runs cannot share state
    through anything but the checkpoint store on disk."""
    parallel.reset_worker_state()
    reset_shared_caches()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The uninterrupted sweep's ``--output`` report, as raw bytes."""
    _clear_process_state()
    out = tmp_path_factory.mktemp("baseline") / "base.json"
    assert main(["sweep", BENCHMARK, *FAST, "--output", str(out)]) == 0
    return out.read_bytes()


def _interrupt_after(checkpoint_path, completed_points):
    """Run the sweep up to ``completed_points`` evaluated points, then stop
    — the on-disk state a mid-sweep kill leaves behind."""
    _clear_process_state()
    settings = RuntimeConfig(**API_SETTINGS, checkpoint_path=checkpoint_path)
    executor = SweepExecutor(settings=settings, configs=CONFIGS, jobs=1)
    points = executor.enumerate_points([BENCHMARK])
    assert len(points) > completed_points, "sweep too small to interrupt"
    executor.evaluate(points[:completed_points])
    return len(points)


def test_interrupted_sweep_resumes_byte_identical(tmp_path, baseline,
                                                  allocation_calls):
    checkpoint = str(tmp_path / "ckpt.sqlite")
    total = _interrupt_after(checkpoint, completed_points=3)

    # First resume recomputes only the missing points; the recorded
    # generation task is restored without a single Algorithm 3 call.
    _clear_process_state()
    allocation_calls.reset()
    out = tmp_path / "resumed.json"
    assert main([
        "sweep", BENCHMARK, *FAST,
        "--checkpoint", checkpoint, "--resume", "--output", str(out),
    ]) == 0
    assert out.read_bytes() == baseline
    assert allocation_calls() == 0
    assert total >= 3

    # Now fully warm: every --jobs count replays to the same bytes with
    # no Algorithm 3 search in any worker, and the in-process run never
    # even builds a routing engine.
    for jobs in ("1", "2", "4"):
        _clear_process_state()
        allocation_calls.reset()
        out = tmp_path / f"resumed-jobs{jobs}.json"
        assert main([
            "sweep", BENCHMARK, *FAST, "--jobs", jobs,
            "--checkpoint", checkpoint, "--resume", "--output", str(out),
        ]) == 0
        assert out.read_bytes() == baseline
        assert allocation_calls() == 0
        if jobs == "1":
            assert not parallel.active_routing_engines(), (
                "a fully-warm resume should restore every point without "
                "creating a routing engine"
            )


def test_checkpointed_run_output_matches_plain_run(tmp_path, baseline):
    """Recording a checkpoint must not perturb the sweep itself."""
    _clear_process_state()
    out = tmp_path / "checkpointed.json"
    assert main([
        "sweep", BENCHMARK, *FAST,
        "--checkpoint", str(tmp_path / "ckpt.sqlite"), "--output", str(out),
    ]) == 0
    assert out.read_bytes() == baseline


def test_resumed_stdout_matches_uninterrupted_stdout(tmp_path, capsys):
    """Beyond the JSON report: the printed tables are identical too."""
    _clear_process_state()
    assert main(["sweep", BENCHMARK, *FAST]) == 0
    plain = capsys.readouterr().out

    checkpoint = str(tmp_path / "ckpt.sqlite")
    _interrupt_after(checkpoint, completed_points=2)
    capsys.readouterr()  # discard the staging run's output
    _clear_process_state()
    assert main([
        "sweep", BENCHMARK, *FAST, "--checkpoint", checkpoint, "--resume",
    ]) == 0
    assert capsys.readouterr().out == plain


def test_resume_requires_checkpoint(capsys):
    assert main(["sweep", BENCHMARK, *FAST, "--resume"]) == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_api_resume_requires_checkpoint_path():
    with pytest.raises(ValueError, match="checkpoint_path"):
        RuntimeConfig(resume=True)


def test_settings_change_invalidates_checkpoint_keys(tmp_path):
    """Content-digest keys: a changed knob must recompute, not replay."""
    from repro.evaluation import generation_task_key, point_task_key

    base = RuntimeConfig(**API_SETTINGS)
    changed = RuntimeConfig(yield_trials=251, frequency_local_trials=60)
    assert generation_task_key(BENCHMARK, "eff-full", base) == \
        generation_task_key(BENCHMARK, "eff-full", changed), \
        "generation keys must ignore evaluation-only knobs"

    design_changed = RuntimeConfig(yield_trials=250, frequency_local_trials=61)
    assert generation_task_key(BENCHMARK, "eff-full", base) != \
        generation_task_key(BENCHMARK, "eff-full", design_changed)

    _clear_process_state()
    settings = RuntimeConfig(
        **API_SETTINGS, checkpoint_path=str(tmp_path / "ck.sqlite")
    )
    executor = SweepExecutor(settings=settings, configs=CONFIGS, jobs=1)
    point = executor.enumerate_points([BENCHMARK])[0]
    assert point_task_key(
        point.benchmark, point.config.value, point.arch_index,
        point.architecture, base,
    ) != point_task_key(
        point.benchmark, point.config.value, point.arch_index,
        point.architecture, changed,
    ), "point keys must cover yield trials"
