"""The architecture design flow (paper Section 4).

Three subroutines, each consuming the profiling results and the physical
constraints relevant to the hardware resource it designs:

* :mod:`repro.design.layout` — qubit placement on the 2D lattice
  (Algorithm 1);
* :mod:`repro.design.bus_selection` — selection of lattice squares for
  4-qubit buses under the adjacency prohibition (Algorithm 2), plus the
  random-selection baseline used by the ``eff-rd-bus`` configuration;
* :mod:`repro.design.frequency_allocation` — centre-outwards per-qubit
  frequency search maximizing locally simulated yield (Algorithm 3).

:class:`repro.design.flow.DesignFlow` wires the three together and
produces a series of architectures trading yield for performance by
varying the number of 4-qubit buses.
"""

from repro.design.layout import LayoutResult, design_layout
from repro.design.bus_selection import (
    BusSelectionResult,
    cross_coupling_weights,
    select_four_qubit_buses,
    select_random_buses,
)
from repro.design.frequency_allocation import (
    ALLOCATION_STRATEGIES,
    AllocationStrategy,
    FrequencyAllocator,
    allocate_frequencies,
    reset_shared_caches,
    resolve_strategy,
)
from repro.design.engine import DesignCache, DesignEngine, StageCache
from repro.design.flow import (
    DesignFlow,
    DesignOptions,
    design_architecture,
    design_architecture_series,
)

__all__ = [
    "LayoutResult",
    "design_layout",
    "BusSelectionResult",
    "cross_coupling_weights",
    "select_four_qubit_buses",
    "select_random_buses",
    "ALLOCATION_STRATEGIES",
    "AllocationStrategy",
    "FrequencyAllocator",
    "allocate_frequencies",
    "reset_shared_caches",
    "resolve_strategy",
    "DesignCache",
    "DesignEngine",
    "StageCache",
    "DesignFlow",
    "DesignOptions",
    "design_architecture",
    "design_architecture_series",
]
