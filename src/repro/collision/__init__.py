"""Frequency-collision model and Monte Carlo yield simulation.

Implements IBM's seven frequency-collision conditions (paper Figure 3)
and the Monte Carlo yield estimation procedure of Section 4.3.1: sample
Gaussian fabrication noise, add it to the designed frequencies, and count
the fraction of samples in which no collision condition is triggered
anywhere on the chip.
"""

from repro.collision.conditions import (
    ANHARMONICITY_GHZ,
    CollisionCondition,
    CollisionThresholds,
    DEFAULT_THRESHOLDS,
    check_pair_collisions,
    check_triple_collisions,
    find_collisions,
)
from repro.collision.yield_simulator import (
    YieldEstimate,
    YieldSimulator,
    collision_index_arrays,
    estimate_yield,
)
from repro.collision.merge_kernel import (
    active_backend,
    available_backends,
    set_backend,
)
from repro.collision.analytic import (
    AnalyticYieldEstimate,
    estimate_yield_analytic,
    pair_collision_probability,
    triple_collision_probability,
)

__all__ = [
    "AnalyticYieldEstimate",
    "estimate_yield_analytic",
    "pair_collision_probability",
    "triple_collision_probability",
    "ANHARMONICITY_GHZ",
    "CollisionCondition",
    "CollisionThresholds",
    "DEFAULT_THRESHOLDS",
    "check_pair_collisions",
    "check_triple_collisions",
    "find_collisions",
    "YieldSimulator",
    "YieldEstimate",
    "collision_index_arrays",
    "estimate_yield",
    "active_backend",
    "available_backends",
    "set_backend",
]
