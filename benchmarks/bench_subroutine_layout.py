"""Section 5.4.1 — effect of the layout design subroutine.

Compares ``eff-layout-only`` (optimized layout, IBM connection styles and
5-frequency scheme) against the ``ibm`` baselines: the paper reports that
the layout-optimized designs deliver comparable or better performance
with ~35x average yield improvement over baseline (2), using far fewer
hardware resources.
"""

from repro.evaluation import ExperimentConfig, layout_effect_gain, run_sweep
from repro.evaluation.analysis import geometric_mean_yield_ratio, mean_performance_change

from _bench_utils import active_benchmarks, active_settings, write_result

CONFIGS = (ExperimentConfig.IBM, ExperimentConfig.EFF_LAYOUT_ONLY)


def test_section541_layout_effect(benchmark):
    settings = active_settings()
    results = benchmark.pedantic(
        run_sweep,
        args=(list(active_benchmarks()),),
        kwargs={"configs": CONFIGS, "settings": settings},
        rounds=1,
        iterations=1,
    )

    comparisons = layout_effect_gain(results, trials=settings.yield_trials)
    lines = ["Section 5.4.1 -- layout design effect "
             "(eff-layout-only 2Q-bus vs ibm (2) 16Q 4Qbus)", ""]
    lines.append(f"{'benchmark':<18} {'ours yield':>12} {'ibm(2) yield':>12} "
                 f"{'yield ratio':>12} {'gates change':>13} {'ours conn':>9} {'ibm conn':>9}")
    for comparison in comparisons:
        lines.append(
            f"{comparison.benchmark:<18} {comparison.ours.yield_rate:>12.2e} "
            f"{comparison.baseline.yield_rate:>12.2e} {comparison.yield_ratio:>12.1f} "
            f"{comparison.performance_change:>+12.1%} {comparison.ours.num_connections:>9} "
            f"{comparison.baseline.num_connections:>9}"
        )
    ratio = geometric_mean_yield_ratio(comparisons)
    change = mean_performance_change(comparisons)
    lines.append("")
    lines.append(f"geometric-mean yield improvement: {ratio:.1f}x (paper: ~35x)")
    lines.append(f"mean gate-count change: {change:+.1%} (paper: comparable or better)")
    write_result("table_section541_layout", "\n".join(lines))

    # The layout subroutine alone must already deliver a large yield gain
    # while using fewer connections than the baseline.
    assert ratio > 10.0
    for comparison in comparisons:
        assert comparison.ours.num_connections < comparison.baseline.num_connections
