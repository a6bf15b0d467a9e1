"""End-to-end architecture design flow (paper Figure 1).

:class:`DesignFlow` chains the three subroutines:

1. profile the program (coupling strength matrix + coupling degree list);
2. design the qubit layout (Algorithm 1);
3. select squares for 4-qubit buses (Algorithm 2) — or randomly, for the
   ``eff-rd-bus`` ablation;
4. allocate qubit frequencies (Algorithm 3) — or apply IBM's 5-frequency
   scheme, for the ``eff-5-freq`` ablation.

Varying the maximum number of 4-qubit buses produces a *series* of
architectures trading yield for performance, which is how the paper draws
each blue ``eff-full`` curve of Figure 10.

The flow itself executes on a :class:`~repro.design.engine.DesignEngine`,
which memoizes each stage independently under content-derived keys: a
flow owns a private engine by default, and callers generating many
related designs (evaluation sweeps, benchmark grids) pass one shared
engine so profiles, layouts, bus-selection sequences and frequency plans
are computed once per distinct input instead of once per flow.
"""

from __future__ import annotations

from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.design.engine import (
    BusStrategy,
    DesignEngine,
    DesignOptions,
    FrequencyStrategy,
)
from repro.design.layout import LayoutResult
from repro.hardware.architecture import Architecture
from repro.profiling.profiler import CircuitProfile

__all__ = [
    "BusStrategy",
    "FrequencyStrategy",
    "DesignOptions",
    "DesignFlow",
    "design_architecture",
    "design_architecture_series",
]


class DesignFlow:
    """The automatic application-specific architecture design flow.

    Args:
        circuit: The quantum program to design an architecture for.
        options: Flow configuration (defaults reproduce the paper's
            ``eff-full`` configuration).
        engine: Optional shared :class:`DesignEngine`; a private engine is
            created when omitted.  Results are identical either way —
            sharing only changes how much work is memoized across flows.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        options: Optional[DesignOptions] = None,
        engine: Optional[DesignEngine] = None,
    ) -> None:
        self.circuit = circuit
        self.options = options or DesignOptions()
        self.engine = engine if engine is not None else DesignEngine()

    # -- cached intermediate results ------------------------------------------------

    @property
    def profile(self) -> CircuitProfile:
        """Profiling result (computed lazily, memoized by the engine)."""
        return self.engine.profile(self.circuit)

    @property
    def layout(self) -> LayoutResult:
        """Layout design result (computed lazily, memoized by the engine)."""
        return self.engine.layout(self.circuit)

    def max_four_qubit_buses(self) -> int:
        """The largest number of 4-qubit buses the generated layout can host."""
        return self.engine.max_four_qubit_buses(self.circuit, self.options)

    # -- single architecture --------------------------------------------------------

    def design(self, max_four_qubit_buses: int = 0, name: Optional[str] = None) -> Architecture:
        """Produce one architecture with at most the given number of 4-qubit buses."""
        return self.engine.design(
            self.circuit, max_four_qubit_buses, self.options, name=name
        )

    def design_series(self, max_buses: Optional[int] = None) -> List[Architecture]:
        """A series of architectures with 0, 1, ..., N 4-qubit buses.

        ``N`` defaults to the maximum number the layout allows, which is how
        the paper generates its per-benchmark Pareto curves.  Requested bus
        counts that the selection cannot actually realize (because the
        prohibition constraint ran out of squares) would duplicate the
        previous member, so such duplicates are dropped.
        """
        return self.engine.design_series(self.circuit, max_buses, self.options)


def design_architecture(
    circuit: QuantumCircuit,
    max_four_qubit_buses: int = 0,
    options: Optional[DesignOptions] = None,
) -> Architecture:
    """Design a single application-specific architecture for ``circuit``."""
    return DesignFlow(circuit, options).design(max_four_qubit_buses=max_four_qubit_buses)


def design_architecture_series(
    circuit: QuantumCircuit,
    max_buses: Optional[int] = None,
    options: Optional[DesignOptions] = None,
) -> List[Architecture]:
    """Design the full yield/performance trade-off series for ``circuit``."""
    return DesignFlow(circuit, options).design_series(max_buses=max_buses)
