"""Section 5.4.3 — effect of the frequency-allocation subroutine.

Compares ``eff-full`` against ``eff-5-freq`` at matched bus counts: the
only difference is Algorithm 3 vs IBM's regular 5-frequency scheme.  The
paper reports ~10x average yield improvement, smaller when the
5-frequency yield is already high (sym6, UCCSD).
"""

from repro.evaluation import (
    ExperimentConfig,
    frequency_allocation_gain,
    run_sweep,
)
from repro.evaluation.analysis import geometric_mean_yield_ratio

from _bench_utils import active_benchmarks, active_settings, write_result

CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_5_FREQ)


def test_section543_frequency_allocation_gain(benchmark):
    settings = active_settings()
    results = benchmark.pedantic(
        run_sweep,
        args=(list(active_benchmarks()),),
        kwargs={"configs": CONFIGS, "settings": settings},
        rounds=1,
        iterations=1,
    )

    comparisons = frequency_allocation_gain(results, trials=settings.yield_trials)
    lines = ["Section 5.4.3 -- frequency allocation effect "
             "(eff-full vs eff-5-freq at matched bus counts)", ""]
    lines.append(f"{'benchmark':<18} {'4Q buses':>8} {'optimized yield':>16} "
                 f"{'5-freq yield':>13} {'ratio':>8}")
    for comparison in comparisons:
        lines.append(
            f"{comparison.benchmark:<18} {comparison.ours.num_four_qubit_buses:>8} "
            f"{comparison.ours.yield_rate:>16.2e} {comparison.baseline.yield_rate:>13.2e} "
            f"{comparison.yield_ratio:>8.1f}"
        )
    ratio = geometric_mean_yield_ratio(comparisons)
    lines.append("")
    lines.append(f"geometric-mean yield improvement: {ratio:.1f}x (paper: ~10x)")
    write_result("table_section543_frequency", "\n".join(lines))

    # The optimized allocation must improve yield on average, by a clear margin.
    assert ratio > 1.5
    # Performance is untouched by the frequency plan (same layout and buses).
    assert all(comparison.performance_change == 0 for comparison in comparisons)
