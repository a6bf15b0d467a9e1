"""The Figure 10 data types and the scoring of one grid point.

The paper's Figure 10 places every (benchmark x configuration x
architecture) point on two axes:

* **yield rate** — Monte Carlo estimate with the collision model of
  Section 4.3.1;
* **normalized reciprocal gate count** — the paper's performance axis:
  the reciprocal of the total post-mapping gate count, normalized so the
  worst (largest) gate count among all evaluated architectures of that
  benchmark sits at 1.0, and better-performing architectures lie to the
  right (> 1.0).

This module holds the result types (:class:`DataPoint`,
:class:`ExperimentResult`), the default configuration list, and
:func:`evaluate_point`, which scores one point.  The grid itself is
enumerated and scored by :class:`~repro.evaluation.parallel.SweepExecutor`,
the one evaluation path behind both ``repro-design sweep`` and its
``evaluate`` alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.collision.yield_simulator import YieldSimulator
from repro.evaluation.configs import ExperimentConfig
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
        keep_routed_circuit=False,
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
