"""Unit tests for the deterministic fault-injection layer (repro.faults).

Covers the plan format (parse/validate/round-trip), the content-addressed
matching semantics (site wildcards, digest prefixes, attempt lists, seeded
rate draws), and the injection runtime (arming, task contexts, the
``exception`` and ``corrupt`` kinds — the only ones that can fire safely
inside the test process).
"""

import json

import pytest

from repro import faults
from repro.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PLAN_FORMAT,
    PLAN_VERSION,
    write_plan,
)
from repro.runtime.metrics import global_metrics

DIGEST = "3f9a" + "0" * 60


@pytest.fixture(autouse=True)
def _disarm():
    """No fault plan leaks into (or out of) any test."""
    faults.reset()
    yield
    faults.reset()


# -- spec validation ---------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(site="task:start", kind="meteor")


def test_empty_site_rejected():
    with pytest.raises(ValueError, match="site"):
        FaultSpec(site="", kind="kill")


def test_rate_out_of_range_rejected():
    with pytest.raises(ValueError, match="rate"):
        FaultSpec(site="task:start", kind="kill", rate=1.5)


def test_all_kinds_constructible():
    for kind in FAULT_KINDS:
        assert FaultSpec(site="task:start", kind=kind).kind == kind


# -- matching semantics ------------------------------------------------------


def test_default_spec_is_transient_first_attempt_only():
    spec = FaultSpec(site="evaluate:start", kind="kill")
    assert spec.matches("evaluate:start", DIGEST, 0)
    assert not spec.matches("evaluate:start", DIGEST, 1)


def test_null_attempts_is_poison_every_attempt():
    spec = FaultSpec(site="evaluate:start", kind="exit", attempts=None)
    for attempt in (0, 1, 2, 7):
        assert spec.matches("evaluate:start", DIGEST, attempt)


def test_site_wildcard_and_mismatch():
    spec = FaultSpec(site="*", kind="kill")
    assert spec.matches("anything:at-all", DIGEST, 0)
    named = FaultSpec(site="task:start", kind="kill")
    assert not named.matches("evaluate:start", DIGEST, 0)


def test_task_digest_prefix_targeting():
    spec = FaultSpec(site="task:start", kind="kill", task="3f9a")
    assert spec.matches("task:start", DIGEST, 0)
    assert not spec.matches("task:start", "beef" + "0" * 60, 0)


# -- plan format -------------------------------------------------------------


def test_plan_round_trips_through_json(tmp_path):
    plan = FaultPlan(seed=7, faults=(
        FaultSpec(site="evaluate:start", kind="kill", task="3f9a"),
        FaultSpec(site="task:start", kind="hang", delay_s=60.0, hold_gil=True),
        FaultSpec(site="evaluate:start", kind="exit", attempts=None, exit_code=99),
        FaultSpec(site="checkpoint:record", kind="corrupt", truncate_bytes=32),
    ))
    path = tmp_path / "plan.json"
    write_plan(plan, path)
    assert FaultPlan.load(path) == plan


def test_plan_rejects_wrong_format_and_version():
    with pytest.raises(ValueError, match="not a fault plan"):
        FaultPlan.from_mapping({"format": "something-else", "version": 1})
    with pytest.raises(ValueError, match="version"):
        FaultPlan.from_mapping({"format": PLAN_FORMAT, "version": 2})


def test_plan_rejects_unknown_spec_keys():
    with pytest.raises(ValueError, match="unknown fault spec keys"):
        FaultPlan.from_mapping({
            "format": PLAN_FORMAT, "version": PLAN_VERSION,
            "faults": [{"site": "task:start", "kind": "kill", "surprise": 1}],
        })


def test_plan_file_is_canonical_json(tmp_path):
    path = tmp_path / "plan.json"
    write_plan(FaultPlan(seed=3, faults=(FaultSpec(site="x", kind="kill"),)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["format"] == PLAN_FORMAT and payload["seed"] == 3


# -- seeded rate draws -------------------------------------------------------


def _fires(plan, occurrences=100):
    return {
        occ for occ in range(occurrences)
        if plan.select("task:start", DIGEST, 0, occ) is not None
    }


def test_rate_draw_is_deterministic():
    plan = FaultPlan(seed=1, faults=(
        FaultSpec(site="task:start", kind="exception", rate=0.5),
    ))
    assert _fires(plan) == _fires(plan)
    assert 10 < len(_fires(plan)) < 90  # actually thinning, not all-or-nothing


def test_rate_draw_depends_on_seed():
    mk = lambda seed: FaultPlan(seed=seed, faults=(  # noqa: E731
        FaultSpec(site="task:start", kind="exception", rate=0.5),
    ))
    assert _fires(mk(1)) != _fires(mk(2))


def test_rate_zero_never_fires():
    plan = FaultPlan(seed=1, faults=(
        FaultSpec(site="task:start", kind="exception", rate=0.0),
    ))
    assert _fires(plan) == set()


# -- injection runtime -------------------------------------------------------


def test_maybe_inject_is_noop_without_plan():
    faults.maybe_inject("task:start")  # must not raise
    assert not faults.active()


def test_armed_exception_fault_fires_and_counts():
    faults.arm(FaultPlan(faults=(
        FaultSpec(site="task:start", kind="exception", task="3f9a"),
    )))
    before = global_metrics().counter("faults/injected:exception")
    with faults.task_context(DIGEST):
        with pytest.raises(FaultInjected, match="task:start"):
            faults.maybe_inject("task:start")
    assert global_metrics().counter("faults/injected:exception") == before + 1
    # Different task digest: same site stays quiet.
    with faults.task_context("beef" + "0" * 60):
        faults.maybe_inject("task:start")


def test_attempt_scoping_in_task_context():
    faults.arm(FaultPlan(faults=(
        FaultSpec(site="task:start", kind="exception", attempts=(1,)),
    )))
    with faults.task_context(DIGEST, attempt=0):
        faults.maybe_inject("task:start")  # attempt 0: no match
    with faults.task_context(DIGEST, attempt=1):
        with pytest.raises(FaultInjected):
            faults.maybe_inject("task:start")


def test_task_context_nests_and_restores():
    assert faults.current_context() == ("", 0)
    with faults.task_context("aaaa", attempt=1):
        assert faults.current_context() == ("aaaa", 1)
        with faults.task_context("bbbb", attempt=2):
            assert faults.current_context() == ("bbbb", 2)
        assert faults.current_context() == ("aaaa", 1)
    assert faults.current_context() == ("", 0)


def test_corrupt_fault_tears_store_tail(tmp_path):
    target = tmp_path / "store.sqlite"
    target.write_bytes(b"x" * 100)
    faults.arm(FaultPlan(faults=(
        FaultSpec(site="checkpoint:record", kind="corrupt", truncate_bytes=30),
    )))
    faults.maybe_inject("checkpoint:record", store_path=target)
    assert target.stat().st_size == 70


def test_corrupt_fault_tears_only_files(tmp_path):
    """Stores are single files: a directory (say, a legacy sharded store)
    is never torn."""
    inside = tmp_path / "entries.json"
    inside.write_bytes(b"x" * 100)
    faults.arm(FaultPlan(faults=(
        FaultSpec(site="checkpoint:record", kind="corrupt", truncate_bytes=30),
    )))
    faults.maybe_inject("checkpoint:record", store_path=tmp_path)
    assert inside.stat().st_size == 100


def test_corrupt_fault_without_store_path_is_noop():
    faults.arm(FaultPlan(faults=(
        FaultSpec(site="checkpoint:record", kind="corrupt"),
    )))
    faults.maybe_inject("checkpoint:record")  # nothing to tear: no raise


def test_reset_disarms():
    faults.arm(FaultPlan(faults=(FaultSpec(site="*", kind="exception"),)))
    assert faults.active()
    faults.reset()
    assert not faults.active()
    faults.maybe_inject("task:start")


def test_fault_boundary_marks_function():
    def handler():
        return "ok"

    marked = faults.fault_boundary(handler)
    assert marked is handler
    assert handler.__fault_boundary__ is True


def test_cli_rejects_missing_plan_before_forking(tmp_path, capsys):
    # A bad --fault-plan path must fail at the CLI, not surface lazily
    # inside every worker as an "error" failure that quarantines the
    # whole sweep.
    from repro import cli

    assert cli.main([
        "sweep", "sym6_145", "--trials", "250", "--local-trials", "60",
        "--configs", "eff-full",
        "--fault-plan", str(tmp_path / "no-such-plan.json"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-design: error:")
    assert "no-such-plan.json" in captured.err
