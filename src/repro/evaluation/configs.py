"""The five experiment configurations of the paper's evaluation (Section 5.2).

========================  =====================================================
configuration             meaning
========================  =====================================================
``ibm``                   IBM's four general-purpose baseline architectures
                          (Figure 9), 5-frequency scheme.
``eff-full``              The full design flow: optimized layout, filtered-
                          weight bus selection, optimized frequency allocation;
                          one architecture per 4-qubit bus count.
``eff-5-freq``            Optimized layout and bus selection, but IBM's
                          5-frequency scheme instead of Algorithm 3.
``eff-rd-bus``            Optimized layout and frequency allocation, but the
                          4-qubit bus squares are selected at random (several
                          seeds produce a cloud of samples).
``eff-layout-only``       Optimized layout, but the connection design is either
                          "2-qubit buses only" or "as many 4-qubit buses as
                          possible" and the frequencies follow the 5-frequency
                          scheme — isolating the benefit of Algorithm 1.
========================  =====================================================
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.design.engine import DesignEngine
from repro.design.flow import BusStrategy, DesignFlow, DesignOptions, FrequencyStrategy
from repro.hardware.architecture import Architecture
from repro.hardware.frequency import five_frequency_scheme
from repro.hardware.ibm import ibm_baselines
from repro.runtime.metrics import global_metrics

_metrics = global_metrics()


class ExperimentConfig(enum.Enum):
    """The five experiment configurations compared in Figure 10."""

    IBM = "ibm"
    EFF_FULL = "eff-full"
    EFF_5_FREQ = "eff-5-freq"
    EFF_RD_BUS = "eff-rd-bus"
    EFF_LAYOUT_ONLY = "eff-layout-only"


def config_display_name(config: ExperimentConfig) -> str:
    """The label used for the configuration in the paper's figures."""
    return config.value


def architectures_for_config(
    circuit: QuantumCircuit,
    config: ExperimentConfig,
    random_bus_seeds: Sequence[int] = (1, 2, 3, 4, 5),
    frequency_local_trials: int = 2000,
    engine: Optional[DesignEngine] = None,
    allocation_strategy: str = "bfs-greedy",
) -> List[Architecture]:
    """Generate every architecture evaluated under ``config`` for ``circuit``.

    Args:
        circuit: The benchmark program.
        config: Which of the five experiment configurations to generate.
        random_bus_seeds: Seeds used by ``eff-rd-bus`` — each seed produces
            one random architecture per bus count, forming the sample cloud
            of Section 5.4.2.
        frequency_local_trials: Monte Carlo trials per candidate frequency in
            Algorithm 3 (applies to the configurations that use it).
        engine: Optional shared :class:`DesignEngine`.  All configurations
            of a benchmark share the profile and layout stages, and
            random-bus seeds that agree on their selected squares share
            one frequency allocation; results are identical with or
            without sharing.
        allocation_strategy: Algorithm 3 search strategy (see
            :data:`~repro.design.frequency_allocation.ALLOCATION_STRATEGIES`)
            for the configurations that run it (``eff-full`` and
            ``eff-rd-bus``); the paper-exact ``bfs-greedy`` by default.
            This is how whole sweeps run the ``coordinate-descent``
            ablation.
    """
    with _metrics.timer("design/generate"):
        architectures = _architectures_for_config(
            circuit, config, random_bus_seeds, frequency_local_trials,
            engine, allocation_strategy,
        )
    _metrics.increment("design/architectures", len(architectures))
    return architectures


def _architectures_for_config(
    circuit: QuantumCircuit,
    config: ExperimentConfig,
    random_bus_seeds: Sequence[int],
    frequency_local_trials: int,
    engine: Optional[DesignEngine],
    allocation_strategy: str,
) -> List[Architecture]:
    engine = engine if engine is not None else DesignEngine()
    if config is ExperimentConfig.IBM:
        return [arch for _index, arch in sorted(ibm_baselines().items())]

    if config is ExperimentConfig.EFF_FULL:
        options = DesignOptions(
            local_trials=frequency_local_trials,
            allocation_strategy=allocation_strategy,
        )
        return DesignFlow(circuit, options, engine=engine).design_series()

    if config is ExperimentConfig.EFF_5_FREQ:
        options = DesignOptions(
            frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY,
            local_trials=frequency_local_trials,
        )
        return DesignFlow(circuit, options, engine=engine).design_series()

    if config is ExperimentConfig.EFF_RD_BUS:
        architectures: List[Architecture] = []
        max_buses = engine.max_four_qubit_buses(circuit)
        for seed in random_bus_seeds:
            options = DesignOptions(
                bus_strategy=BusStrategy.RANDOM,
                random_bus_seed=seed,
                local_trials=frequency_local_trials,
                allocation_strategy=allocation_strategy,
            )
            flow = DesignFlow(circuit, options, engine=engine)
            previous_bus_count = -1
            for num_buses in range(1, max_buses + 1):
                actual = engine.realized_bus_count(circuit, num_buses, options)
                if actual == previous_bus_count:
                    # The random selection ran out of non-conflicting squares;
                    # larger requests only duplicate the previous design —
                    # skipped before frequency allocation runs.
                    continue
                previous_bus_count = actual
                arch = flow.design(num_buses)
                arch.name = f"{arch.name}_seed{seed}"
                architectures.append(arch)
        return architectures

    if config is ExperimentConfig.EFF_LAYOUT_ONLY:
        return _layout_only_architectures(circuit, engine)

    raise ValueError(f"unknown configuration {config!r}")


def _layout_only_architectures(
    circuit: QuantumCircuit, engine: DesignEngine
) -> List[Architecture]:
    """The two ``eff-layout-only`` designs: 2-qubit buses only, and max 4-qubit buses.

    Both use IBM's 5-frequency scheme so that the comparison against the
    ``ibm`` baseline isolates the effect of the layout subroutine alone.
    """
    flow = DesignFlow(
        circuit,
        DesignOptions(frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY),
        engine=engine,
    )
    minimal = flow.design(0, name=f"layout_only_{circuit.name}_2qbus")
    maximal = flow.design(
        flow.max_four_qubit_buses(), name=f"layout_only_{circuit.name}_max4qbus"
    )
    for arch in (minimal, maximal):
        arch.frequencies = five_frequency_scheme(arch.coordinates())
    return [minimal, maximal]
