"""Section 5.3 headline numbers — optimality and controllability.

Regenerates the aggregate comparisons the paper quotes in Section 5.3:

* the most simplified generated design vs IBM baseline (1)
  (paper: ~7.7% better performance and ~4x better yield);
* the most simplified generated design vs IBM baseline (2)
  (paper: >100x yield with <1% performance loss);
* the maximally connected generated design vs IBM baseline (4)
  (paper: >1000x yield on average with ~3.5% performance loss);
* the controllability range of the trade-off (paper: ~10x-50x yield for
  10%-33% performance).

A subset of benchmarks is used by default (REPRO_BENCH_FULL=1 for all
twelve).  Absolute ratios depend on the synthetic benchmark substitutes
and the conservative both-orientation collision checking, so the
assertions target the direction and order of magnitude rather than the
exact paper values.
"""

from repro.evaluation import ExperimentConfig, headline_comparisons, run_sweep
from repro.evaluation.analysis import geometric_mean_yield_ratio, mean_performance_change

from _bench_utils import active_benchmarks, active_settings, write_result

CONFIGS = (ExperimentConfig.IBM, ExperimentConfig.EFF_FULL)


def test_section53_headline_numbers(benchmark):
    settings = active_settings()
    results = benchmark.pedantic(
        run_sweep,
        args=(list(active_benchmarks()),),
        kwargs={"configs": CONFIGS, "settings": settings},
        rounds=1,
        iterations=1,
    )

    headline = headline_comparisons(results, trials=settings.yield_trials)
    lines = ["Section 5.3 -- headline comparisons", ""]
    lines.append(f"{'comparison':<40} {'yield ratio (geo-mean)':>22} {'gate-count change':>18}")
    summary = {}
    for key, label in (
        ("simplest_vs_ibm1", "simplest eff-full vs ibm (1) 16Q 2Qbus"),
        ("simplest_vs_ibm2", "simplest eff-full vs ibm (2) 16Q 4Qbus"),
        ("max_vs_ibm4", "max-bus eff-full vs ibm (4) 20Q 4Qbus"),
    ):
        comparisons = headline[key]
        ratio = geometric_mean_yield_ratio(comparisons)
        change = mean_performance_change(comparisons)
        summary[key] = (ratio, change)
        lines.append(f"{label:<40} {ratio:>22.1f} {change:>+17.1%}")
    lines.append("")
    lines.append("per-benchmark detail:")
    for key in ("simplest_vs_ibm1", "simplest_vs_ibm2", "max_vs_ibm4"):
        for comparison in headline[key]:
            lines.append(
                f"  {key:<18} {comparison.benchmark:<16} yield x{comparison.yield_ratio:<10.1f} "
                f"gates {comparison.performance_change:+.1%}"
            )
    write_result("table_section53_headline", "\n".join(lines))

    # Directional checks mirroring the paper's claims.  The baseline (2) and
    # (4) yields are so low that their Monte Carlo estimates are often zero;
    # ratios then use a floor of one success over the trial count, so the
    # measurable ratio is bounded by trials * our_yield and the paper's
    # ">100x"/">1000x" statements can only be confirmed as lower bounds here.
    assert summary["simplest_vs_ibm1"][0] > 1.0          # better yield than baseline (1)
    assert summary["simplest_vs_ibm2"][0] > 50.0         # >>x vs baseline (2), floor-limited
    assert summary["max_vs_ibm4"][0] > 5.0               # >>x vs baseline (4), floor-limited
    assert summary["max_vs_ibm4"][1] < 0.25              # modest performance cost


def test_section53_controllability(benchmark):
    """Trade-off range available by varying the number of 4-qubit buses."""
    from repro.benchmarks import get_benchmark
    from repro.collision import YieldSimulator
    from repro.design import DesignFlow, DesignOptions
    from repro.mapping import route_circuit
    from repro.profiling import profile_circuit

    settings = active_settings()
    circuit = get_benchmark("z4_268")
    profile = profile_circuit(circuit)
    flow = DesignFlow(circuit, DesignOptions(local_trials=settings.frequency_local_trials))
    simulator = YieldSimulator(trials=settings.yield_trials, seed=7)

    series = benchmark.pedantic(flow.design_series, rounds=1, iterations=1)

    rows = []
    for architecture in series:
        yield_rate = simulator.estimate(architecture).yield_rate
        gates = route_circuit(circuit, architecture, profile).total_gates
        rows.append((len(architecture.four_qubit_buses()), yield_rate, gates))

    lines = ["Section 5.3 -- controllability of the yield/performance trade-off (z4_268)", ""]
    lines.append(f"{'4Q buses':>8} {'yield':>12} {'total gates':>12}")
    for buses, yield_rate, gates in rows:
        lines.append(f"{buses:>8} {yield_rate:>12.2e} {gates:>12}")
    first, last = rows[0], rows[-1]
    if last[1] > 0:
        lines.append("")
        lines.append(f"trade-off span: {first[1] / max(last[1], 1e-12):.1f}x yield for "
                     f"{(first[2] - last[2]) / first[2]:.1%} gate-count reduction")
    write_result("table_section53_controllability", "\n".join(lines))

    assert rows[0][1] >= rows[-1][1]       # yield falls as buses are added
    assert min(r[2] for r in rows) < rows[0][2]  # performance improves somewhere
