"""Evaluation harness reproducing the paper's Section 5.

The five experiment configurations (``ibm``, ``eff-full``, ``eff-5-freq``,
``eff-rd-bus``, ``eff-layout-only``) are generated per benchmark, each
architecture is scored on the two axes of Figure 10 — Monte Carlo yield
rate and total post-mapping gate count — and the analysis helpers compute
the paper's headline comparisons (Sections 5.3 and 5.4).
"""

from repro.evaluation.checkpoint import (
    SweepCheckpoint,
    generation_task_key,
    point_task_key,
)
from repro.evaluation.configs import (
    ExperimentConfig,
    architectures_for_config,
    config_display_name,
)
from repro.evaluation.experiment import (
    DataPoint,
    ExperimentResult,
    evaluate_point,
)
from repro.evaluation.parallel import (
    SweepExecutor,
    SweepPoint,
    run_sweep,
    sweep_point_seed,
)
from repro.evaluation.supervisor import (
    QuarantinedTask,
    SupervisedExecutor,
    SupervisorPolicy,
    TaskFailure,
)
from repro.evaluation.pareto import is_dominated, pareto_front
from repro.evaluation.analysis import (
    HeadlineComparison,
    frequency_allocation_gain,
    headline_comparisons,
    layout_effect_gain,
)
from repro.evaluation.figures import figure5_data, figure10_rows, format_figure10_table

__all__ = [
    "ExperimentConfig",
    "architectures_for_config",
    "config_display_name",
    "DataPoint",
    "ExperimentResult",
    "evaluate_point",
    "SweepCheckpoint",
    "generation_task_key",
    "point_task_key",
    "SweepExecutor",
    "SweepPoint",
    "run_sweep",
    "sweep_point_seed",
    "QuarantinedTask",
    "SupervisedExecutor",
    "SupervisorPolicy",
    "TaskFailure",
    "pareto_front",
    "is_dominated",
    "HeadlineComparison",
    "headline_comparisons",
    "layout_effect_gain",
    "frequency_allocation_gain",
    "figure5_data",
    "figure10_rows",
    "format_figure10_table",
]
