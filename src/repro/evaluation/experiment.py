"""Running the Figure 10 experiment: yield vs post-mapping gate count.

For one benchmark, every architecture of every requested configuration is
scored on the two axes of the paper's Figure 10:

* **yield rate** — Monte Carlo estimate with the collision model of
  Section 4.3.1;
* **normalized reciprocal gate count** — the paper's performance axis:
  the reciprocal of the total post-mapping gate count, normalized so the
  worst (largest) gate count among all evaluated architectures of that
  benchmark sits at 1.0, and better-performing architectures lie to the
  right (> 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.collision.yield_simulator import YieldSimulator
from repro.design.engine import DesignEngine
from repro.evaluation.configs import ExperimentConfig, architectures_for_config
from repro.hardware.architecture import Architecture
from repro.mapping.engine import RoutingEngine
from repro.mapping.router import route_circuit
from repro.profiling.profiler import CircuitProfile
from repro.runtime.config import RuntimeConfig

#: Configurations evaluated by default (all five, as in Figure 10).
DEFAULT_CONFIGS = (
    ExperimentConfig.IBM,
    ExperimentConfig.EFF_FULL,
    ExperimentConfig.EFF_RD_BUS,
    ExperimentConfig.EFF_5_FREQ,
    ExperimentConfig.EFF_LAYOUT_ONLY,
)

def design_engine_for(settings: RuntimeConfig) -> DesignEngine:
    """A fresh :class:`DesignEngine` warm-loaded per ``settings``.

    The single construction path used by the serial harness, the sweep
    workers, and the CLI: when ``settings.design_cache_path`` names a
    persisted :class:`~repro.design.engine.DesignCache` file, its
    Algorithm 3 frequency plans are merged in before any design runs
    (missing files are ignored).  The frequency cache is unbounded in
    that case — the zero-search warm-session guarantee must hold however
    large the persisted grid grew, and memory stays bounded by the
    counts-only file the operator chose to persist.
    """
    if not settings.design_cache_path:
        return DesignEngine()
    from repro.design.engine import DesignCache

    engine = DesignEngine(frequency_cache=DesignCache(max_entries=None))
    engine.frequency_cache.load(settings.design_cache_path, missing_ok=True)
    return engine


@dataclass
class DataPoint:
    """One point of Figure 10: one architecture evaluated for one benchmark."""

    benchmark: str
    config: ExperimentConfig
    architecture_name: str
    num_qubits: int
    num_connections: int
    num_four_qubit_buses: int
    yield_rate: float
    total_gates: int
    num_swaps: int = 0
    normalized_reciprocal_gates: float = 0.0

    @property
    def reciprocal_gates(self) -> float:
        return 1.0 / self.total_gates if self.total_gates else 0.0


@dataclass
class ExperimentResult:
    """All data points of one benchmark's subfigure of Figure 10."""

    benchmark: str
    points: List[DataPoint] = field(default_factory=list)

    def by_config(self, config: ExperimentConfig) -> List[DataPoint]:
        return [point for point in self.points if point.config is config]

    def best_yield(self, config: Optional[ExperimentConfig] = None) -> Optional[DataPoint]:
        pool = self.by_config(config) if config else self.points
        return max(pool, key=lambda p: p.yield_rate, default=None)

    def best_performance(self, config: Optional[ExperimentConfig] = None) -> Optional[DataPoint]:
        pool = self.by_config(config) if config else self.points
        return min(pool, key=lambda p: p.total_gates, default=None)

    def normalize(self) -> None:
        """Fill in the normalized reciprocal gate count for every point.

        The paper normalizes each benchmark's X axis so that the worst
        post-mapping gate count maps to 1.0.
        """
        if not self.points:
            return
        worst = max(point.total_gates for point in self.points)
        for point in self.points:
            point.normalized_reciprocal_gates = worst / point.total_gates


def evaluate_benchmark(
    circuit: QuantumCircuit,
    configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
    settings: Optional[RuntimeConfig] = None,
    engine: Optional[RoutingEngine] = None,
    design_engine: Optional[DesignEngine] = None,
) -> ExperimentResult:
    """Evaluate one benchmark across the requested configurations.

    Architectures that cannot host the benchmark (fewer physical than
    logical qubits) are skipped, mirroring the paper where every baseline
    has at least as many qubits as the largest benchmark.

    Args:
        engine: Optional shared :class:`RoutingEngine`; multi-benchmark
            callers pass one so baseline architectures shared across
            benchmarks keep their routers and distance matrices.  Must be
            configured with ``settings.routing``.
        design_engine: Optional shared :class:`DesignEngine`; the
            benchmark's configurations share its profile/layout/selection
            stages and its memoized frequency allocations (results are
            identical with or without one).
    """
    settings = settings or RuntimeConfig()
    simulator = YieldSimulator(
        trials=settings.yield_trials, sigma_ghz=settings.sigma_ghz, seed=settings.yield_seed
    )
    if engine is None:
        engine = RoutingEngine(settings.routing)
        if settings.routing_cache_path:
            engine.cache.load(settings.routing_cache_path, missing_ok=True)
    if design_engine is None:
        design_engine = design_engine_for(settings)
    # The design engine's profile stage serves both the architecture
    # generation below and the router's initial placement.
    profile = design_engine.profile(circuit)
    result = ExperimentResult(benchmark=circuit.name)
    for config in configs:
        for architecture in architectures_for_config(
            circuit,
            config,
            random_bus_seeds=settings.random_bus_seeds,
            frequency_local_trials=settings.frequency_local_trials,
            engine=design_engine,
            allocation_strategy=settings.allocation_strategy,
            screening=settings.screening,
        ):
            if architecture.num_qubits < circuit.num_qubits:
                continue
            result.points.append(
                evaluate_point(circuit, profile, architecture, config, simulator, settings,
                               engine=engine)
            )
    result.normalize()
    return result


def evaluate_suite(
    circuits: Dict[str, QuantumCircuit],
    configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
    settings: Optional[RuntimeConfig] = None,
) -> Dict[str, ExperimentResult]:
    """Evaluate several benchmarks (the full Figure 10 grid by default).

    One routing engine and one design engine serve the whole suite, so
    baseline architectures shared across benchmarks keep their routers
    and distance matrices, and design stages shared across circuits are
    computed once.
    """
    settings = settings or RuntimeConfig()
    engine = RoutingEngine(settings.routing)
    if settings.routing_cache_path:
        engine.cache.load(settings.routing_cache_path, missing_ok=True)
    design_engine = design_engine_for(settings)
    return {
        name: evaluate_benchmark(circuit, configs, settings, engine=engine,
                                 design_engine=design_engine)
        for name, circuit in circuits.items()
    }


def evaluate_point(
    circuit: QuantumCircuit,
    profile: CircuitProfile,
    architecture: Architecture,
    config: ExperimentConfig,
    simulator: YieldSimulator,
    settings: RuntimeConfig,
    engine: Optional[RoutingEngine] = None,
) -> DataPoint:
    """Score one (benchmark, architecture) evaluation point of Figure 10.

    Args:
        engine: Optional shared :class:`RoutingEngine`; reuses distance
            matrices and memoized routings across points (results are
            identical with or without one).
    """
    # settings.routing is passed even alongside an engine so route_circuit's
    # consistency guard rejects an engine configured with different knobs.
    mapping = route_circuit(
        circuit,
        architecture,
        profile=profile,
        parameters=settings.routing,
        keep_routed_circuit=settings.keep_routed_circuits,
        engine=engine,
    )
    yield_estimate = simulator.estimate(architecture)
    return DataPoint(
        benchmark=circuit.name,
        config=config,
        architecture_name=architecture.name,
        num_qubits=architecture.num_qubits,
        num_connections=architecture.num_connections(),
        num_four_qubit_buses=len(architecture.four_qubit_buses()),
        yield_rate=yield_estimate.yield_rate,
        total_gates=mapping.total_gates,
        num_swaps=mapping.num_swaps,
    )
