"""Golden contracts: committed sweep-report digests and checkpoint task keys.

``tests/golden/contracts.json`` pins two things every refactor must keep:

* the SHA-256 of ``sweep sym6_145 --trials 200 --local-trials 100
  --output`` for each Algorithm 3 strategy, at ``--jobs 1`` and
  ``--jobs 2`` (the byte-identity contract across job counts);
* ``generation_task_key`` / ``point_task_key`` for one fixed non-default
  configuration and for the defaults, so existing checkpoint stores keep
  resuming after a change.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchmarks import get_benchmark
from repro.cli import main
from repro.design import ALLOCATION_STRATEGIES, reset_shared_caches
from repro.evaluation import ExperimentConfig, architectures_for_config, parallel
from repro.evaluation.checkpoint import generation_task_key, point_task_key
from repro.mapping.sabre import SabreParameters
from repro.runtime.config import RuntimeConfig

GOLDEN = Path(__file__).parent / "golden" / "contracts.json"
SWEEP_ARGV = ["sweep", "sym6_145", "--trials", "200", "--local-trials", "100"]
KEY_BENCHMARK = "sym6_145"

#: The fixed configuration whose task keys are pinned: every key-relevant
#: field is set away from its default.
FIXED_CONFIG = RuntimeConfig(
    yield_trials=321,
    sigma_ghz=0.025,
    yield_seed=11,
    frequency_local_trials=77,
    random_bus_seeds=(3, 9),
    routing=SabreParameters(passes=3, restarts=2, seed=5),
    allocation_strategy="analytic-guided",
)


def sweep_digest(tmp_path: Path, strategy: str, jobs: int) -> str:
    """SHA-256 of the ``--output`` report of a cold golden sweep."""
    parallel.reset_worker_state()
    reset_shared_caches()
    out = tmp_path / f"report-{strategy}-{jobs}.json"
    argv = [*SWEEP_ARGV, "--allocation-strategy", strategy, "--jobs", str(jobs),
            "--output", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def task_keys() -> dict:
    """Generation keys per configuration and point keys per IBM baseline."""
    circuit = get_benchmark(KEY_BENCHMARK)
    baselines = architectures_for_config(circuit, ExperimentConfig.IBM)
    keys = {}
    for label, config in (("default", RuntimeConfig()), ("fixed", FIXED_CONFIG)):
        keys[label] = {
            "generation": {
                experiment.value: generation_task_key(KEY_BENCHMARK, experiment.value,
                                                      config)
                for experiment in ExperimentConfig
            },
            "point": [
                point_task_key(KEY_BENCHMARK, ExperimentConfig.IBM.value, index,
                               architecture, config)
                for index, architecture in enumerate(baselines)
            ],
        }
    return keys


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("strategy", sorted(ALLOCATION_STRATEGIES))
def test_sweep_report_matches_golden_digest(tmp_path, capsys, strategy):
    expected = load_golden()["sweep_sha256"][strategy]
    for jobs in (1, 2):
        assert sweep_digest(tmp_path, strategy, jobs) == expected, (
            f"{strategy} sweep report drifted at --jobs {jobs}"
        )
    capsys.readouterr()


def test_checkpoint_task_keys_match_golden():
    assert task_keys() == load_golden()["task_keys"]


def regenerate() -> None:
    """Rewrite the golden file from the current code."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {}
        for strategy in sorted(ALLOCATION_STRATEGIES):
            serial = sweep_digest(Path(scratch), strategy, 1)
            if sweep_digest(Path(scratch), strategy, 2) != serial:
                raise SystemExit(f"{strategy}: --jobs 1 and --jobs 2 reports differ")
            digests[strategy] = serial
    golden = {"sweep_argv": SWEEP_ARGV, "sweep_sha256": digests, "task_keys": task_keys()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
