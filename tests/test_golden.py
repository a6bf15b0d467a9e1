"""Golden contracts: the design flow's outputs, committed.

``tests/golden/contracts.json`` pins seven things every refactor must keep:

* ``sweep_sha256`` — the SHA-256 of ``sweep sym6_145 --trials 200
  --local-trials 100 --output`` for each Algorithm 3 strategy, at
  ``--jobs 1`` and ``--jobs 2`` (the byte-identity contract across job
  counts);
* ``task_keys`` — ``generation_task_key`` / ``point_task_key`` for one
  fixed non-default configuration and for the defaults, so existing
  checkpoint stores keep resuming after a change;
* ``routing_swaps`` — SABRE swap counts per point of a 20-point routing
  grid, for the single forward pass (``SabreParameters()``) and for the
  evaluation default (``DEFAULT_EVALUATION_ROUTING``);
* ``routing_event_logs`` — the SHA-256 of the winning forward pass's
  event log (:attr:`~repro.mapping.sabre.RoutingLog.events`) per point of
  the same grid and parameter sets, so two routers that make different
  decisions with equal swap totals still disagree;
* ``perfbench_grid_swaps`` — the evaluation-default swap count of every
  point of perfbench's grid (five benchmarks x the five configurations,
  145 points, total 24,073), keyed ``benchmark/config/index``;
* ``design_fingerprints`` — the SHA-256 of every generated
  architecture's name, 4-qubit-bus origins, coupling edges and
  frequencies, per (benchmark, ``eff-*`` configuration);
* ``profile_keys`` — per benchmark of the library, the routing cache
  key (``profile_cache_key``) and the layout digest
  (``profile_layout_digest``) of its circuit profile, so persisted
  routing and design stores keep hitting across a profiler change.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.circuit.dag import PackedDAG
from repro.cli import main
from repro.collision import merge_kernel
from repro.design import (
    ALLOCATION_STRATEGIES,
    DesignEngine,
    DesignFlow,
    DesignOptions,
    reset_shared_caches,
)
from repro.design.engine import profile_layout_digest
from repro.evaluation import ExperimentConfig, architectures_for_config, parallel
from repro.evaluation.checkpoint import generation_task_key, point_task_key
from repro.hardware import ibm_16q_2x8, ibm_20q_4x5
from repro.mapping import RoutingEngine
from repro.mapping.engine import profile_cache_key
from repro.mapping.initial import initial_mapping
from repro.mapping.sabre import SabreParameters
from repro.profiling import profile_circuit
from repro.runtime.config import DEFAULT_EVALUATION_ROUTING, RuntimeConfig
from repro.runtime.metrics import diff_snapshots, global_metrics

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
    allocation_strategy="coordinate-descent",
)

ROUTING_BENCHMARKS = ("sym6_145", "z4_268", "adr4_197", "qft_16", "ising_model_16")
DESIGN_BENCHMARKS = ("sym6_145", "z4_268", "adr4_197")
DESIGN_CONFIGS = (
    ExperimentConfig.EFF_FULL,
    ExperimentConfig.EFF_5_FREQ,
    ExperimentConfig.EFF_RD_BUS,
    ExperimentConfig.EFF_LAYOUT_ONLY,
)
DESIGN_SEEDS = (1, 2, 3)
DESIGN_LOCAL_TRIALS = 800
#: perfbench's grid (``perfbench/run.py``'s ``GRID``).
PERFBENCH_GRID = ("sym6_145", "qft_16", "ising_model_16", "rd84_142", "UCCSD_ansatz_8")


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


def routing_grid():
    """The 20 ``(point label, circuit, architecture)`` points of the routing goldens."""
    for name in ROUTING_BENCHMARKS:
        circuit = get_benchmark(name)
        targets = {
            "ibm_16q_2x8_2qbus": ibm_16q_2x8(False),
            "ibm_16q_2x8_4qbus": ibm_16q_2x8(True),
            "ibm_20q_4x5_4qbus": ibm_20q_4x5(True),
            "eff_0_buses": DesignFlow(circuit, DesignOptions(local_trials=200)).design(0),
        }
        for label, architecture in targets.items():
            yield f"{name}/{label}", circuit, architecture


def routing_swaps() -> dict:
    """Swap counts per ``benchmark/architecture`` point, single pass vs default."""
    single, default = RoutingEngine(SabreParameters()), RoutingEngine(DEFAULT_EVALUATION_ROUTING)
    swaps = {}
    for point, circuit, architecture in routing_grid():
        swaps[point] = {
            "single_pass": single.route(circuit, architecture,
                                        keep_routed_circuit=False).num_swaps,
            "evaluation_default": default.route(circuit, architecture,
                                                keep_routed_circuit=False).num_swaps,
        }
    return swaps


def routing_event_logs() -> dict:
    """SHA-256 of the winning event log per routing-grid point and parameter set.

    Each log is routed the way :meth:`RoutingEngine.route` routes a miss:
    the engine's router, the profile-driven initial placement, and the
    circuit's forward (and, for bidirectional passes, reverse) pack.
    """
    engines = {
        "single_pass": RoutingEngine(SabreParameters()),
        "evaluation_default": RoutingEngine(DEFAULT_EVALUATION_ROUTING),
    }
    digests = {}
    for point, circuit, architecture in routing_grid():
        profile = profile_circuit(circuit)
        digests[point] = {}
        for kind, engine in engines.items():
            router = engine.router_for(architecture)
            mapping = initial_mapping(profile, architecture, router.distances)
            reverse = None
            if engine.parameters.passes > 1:
                reverse = PackedDAG.from_circuit(circuit, reverse=True)
            log = router.route_packed(PackedDAG.from_circuit(circuit), reverse, mapping)
            encoded = json.dumps(log.events).encode()
            digests[point][kind] = hashlib.sha256(encoded).hexdigest()
    return digests


def perfbench_grid_swaps() -> dict:
    """Evaluation-default swap counts per ``benchmark/config/index`` of perfbench's grid.

    The points are the ones a default ``sweep`` routes.  Algorithm 3 runs
    with a single local trial: it only picks frequencies, which routing
    ignores, so the coupling graphs and swap counts are the sweep's.
    """
    reset_shared_caches()
    design = DesignEngine()
    routing = RoutingEngine(DEFAULT_EVALUATION_ROUTING)
    swaps = {}
    for name in PERFBENCH_GRID:
        circuit = get_benchmark(name)
        profile = design.profile(circuit)
        for config in ExperimentConfig:
            architectures = architectures_for_config(
                circuit, config, frequency_local_trials=1, engine=design
            )
            for index, architecture in enumerate(architectures):
                if architecture.num_qubits >= circuit.num_qubits:
                    swaps[f"{name}/{config.value}/{index}"] = routing.route(
                        circuit, architecture, profile=profile, keep_routed_circuit=False
                    ).num_swaps
    return swaps


def fingerprint(architecture) -> list:
    """Everything a design golden compares, per architecture."""
    return [
        architecture.name,
        sorted(bus.square.origin for bus in architecture.four_qubit_buses()),
        sorted(architecture.coupling_edges()),
        sorted(architecture.frequencies.items()),
    ]


def design_fingerprints() -> dict:
    """SHA-256 of the architecture fingerprints per ``benchmark/config``."""
    reset_shared_caches()
    engine = DesignEngine()
    digests = {}
    for name in DESIGN_BENCHMARKS:
        for config in DESIGN_CONFIGS:
            architectures = architectures_for_config(
                get_benchmark(name), config,
                random_bus_seeds=DESIGN_SEEDS,
                frequency_local_trials=DESIGN_LOCAL_TRIALS,
                engine=engine,
            )
            encoded = json.dumps([fingerprint(arch) for arch in architectures])
            digests[f"{name}/{config.value}"] = hashlib.sha256(encoded.encode()).hexdigest()
    return digests


def profile_keys() -> dict:
    """Routing cache key and layout digest of every library benchmark's profile."""
    keys = {}
    for name in BENCHMARK_NAMES:
        profile = profile_circuit(get_benchmark(name))
        keys[name] = {
            "cache_key": profile_cache_key(profile),
            "layout_digest": profile_layout_digest(profile),
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


def test_sweep_report_unchanged_when_the_noise_self_check_fails(
    tmp_path, capsys, merge_backend, monkeypatch,
):
    """A C noise draw that fails its self-check hands every draw to numpy,
    and the report keeps its golden bytes."""
    merge_backend("native")
    real = merge_kernel.pcg64_normal
    c_draws = []

    def corrupted(*args, **kwargs):
        c_draws.append(args[3])
        out = real(*args, **kwargs)
        out.flat[-1] += 1.0
        return out

    monkeypatch.setattr(merge_kernel, "pcg64_normal", corrupted)
    monkeypatch.setattr(merge_kernel, "_normal_verified", None)
    strategy = RuntimeConfig().allocation_strategy
    before = global_metrics().snapshot()
    assert sweep_digest(tmp_path, strategy, 1) == load_golden()["sweep_sha256"][strategy]
    counters = diff_snapshots(global_metrics().snapshot(), before)["counters"]
    assert len(c_draws) == 1, "only the self-check may draw in C"
    assert counters.get("yield/noise_declines/self_check", 0) > 0
    capsys.readouterr()


def test_checkpoint_task_keys_match_golden():
    assert task_keys() == load_golden()["task_keys"]


def test_routing_swaps_match_golden(routing_backend):
    live = routing_swaps()
    assert live == load_golden()["routing_swaps"]
    worse = {point: counts for point, counts in live.items()
             if counts["evaluation_default"] > counts["single_pass"]}
    assert not worse, f"the evaluation default loses points to the single pass: {worse}"
    totals = {kind: sum(counts[kind] for counts in live.values())
              for kind in ("single_pass", "evaluation_default")}
    assert totals["evaluation_default"] < totals["single_pass"], (
        f"the evaluation default no longer lowers the grid swap total: {totals}"
    )


def test_routing_event_logs_match_golden(routing_backend):
    assert routing_event_logs() == load_golden()["routing_event_logs"]


def test_perfbench_grid_swaps_match_golden():
    live = perfbench_grid_swaps()
    assert live == load_golden()["perfbench_grid_swaps"]
    assert (len(live), sum(live.values())) == (145, 24_073)


def test_design_fingerprints_match_golden(routing_backend):
    assert design_fingerprints() == load_golden()["design_fingerprints"]


def test_profile_keys_match_golden():
    assert profile_keys() == load_golden()["profile_keys"]


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
    golden = {
        "design_fingerprints": design_fingerprints(),
        "perfbench_grid_swaps": perfbench_grid_swaps(),
        "profile_keys": profile_keys(),
        "routing_event_logs": routing_event_logs(),
        "routing_swaps": routing_swaps(),
        "sweep_argv": SWEEP_ARGV,
        "sweep_sha256": digests,
        "task_keys": task_keys(),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
