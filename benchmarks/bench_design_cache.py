"""Design-cache benchmark: warm-session replay of the evaluation grid.

Regenerates the evidence for the persisted design-stage cache's claims on
a Figure 10 design-space-exploration grid:

* **Identity** — a *second session* (a fresh
  :class:`~repro.design.engine.DesignEngine`, as a new process would
  build) that warm-loads the persisted
  :class:`~repro.design.engine.DesignCache` file re-derives every
  architecture of the full evaluation grid **bit-identically**: same
  names, same selected squares, same coupling edges, and bit-identical
  frequency assignments.
* **Zero frequency searches** — the warm session runs **zero**
  Algorithm 3 Monte Carlo searches
  (the ``design/allocation_calls`` metric does not move): every plan is served from the counts-only JSON file.
* **Speedup** — the warm session runs at least ``MIN_SPEEDUP`` times
  faster than the cold session that populated the cache (the remaining
  warm-path work is profiling, layout and bus selection — all cheap).

The cache file round-trips through the same machinery production uses
(atomic write, version validation, locked merge — see
:mod:`repro.persistence`), so the benchmark also records the file's size
and entry count to document that sweep-scale caches stay tiny.

Run styles:

* ``python benchmarks/bench_design_cache.py [--smoke] [--json PATH]`` —
  standalone; writes a text table to ``benchmarks/results/`` and a JSON
  record (default ``benchmarks/results/BENCH_design_cache.json``) for
  the CI perf-trajectory artifact.
* ``python -m pytest benchmarks/bench_design_cache.py`` — same run
  wrapped in a test with the identity/zero-search/speedup assertions.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from repro.benchmarks import get_benchmark
from repro.design import DesignCache, DesignEngine
from repro.design.frequency_allocation import reset_shared_caches
from repro.evaluation.configs import ExperimentConfig, architectures_for_config
from repro.runtime.metrics import global_metrics

from _bench_utils import RESULTS_DIR, write_result

#: Minimum acceptable warm-session speedup over the cold session.
MIN_SPEEDUP = 5.0

#: Relaxed floor for shared CI runners (the JSON artifact records the
#: true ratio either way, so the perf trajectory catches slow drift).
CI_MIN_SPEEDUP = 2.5

#: The four design-flow configurations of the Figure 10 grid (the ``ibm``
#: baselines involve no design work and are excluded).
EFF_CONFIGS = (
    ExperimentConfig.EFF_FULL,
    ExperimentConfig.EFF_5_FREQ,
    ExperimentConfig.EFF_RD_BUS,
    ExperimentConfig.EFF_LAYOUT_ONLY,
)

SMOKE_BENCHMARKS = ("sym6_145", "z4_268", "adr4_197")
FULL_BENCHMARKS = SMOKE_BENCHMARKS + ("qft_16", "UCCSD_ansatz_8", "ising_model_16")

SMOKE_LOCAL_TRIALS = 800
FULL_LOCAL_TRIALS = 2000
SMOKE_SEEDS = (1, 2, 3)
FULL_SEEDS = (1, 2, 3, 4, 5)


def _fingerprint(architecture) -> Tuple:
    """Everything the identity check compares, per architecture."""
    return (
        architecture.name,
        tuple(sorted(bus.square.origin for bus in architecture.four_qubit_buses())),
        tuple(sorted(architecture.coupling_edges())),
        tuple(sorted(architecture.frequencies.items())),
    )


def _allocation_calls() -> int:
    """Algorithm 3 searches run so far in this process."""
    return global_metrics().snapshot()["counters"].get("design/allocation_calls", 0)


def _generate_grid(benchmarks, seeds, local_trials, engine):
    return {
        (name, config.value): architectures_for_config(
            get_benchmark(name), config,
            random_bus_seeds=seeds,
            frequency_local_trials=local_trials,
            engine=engine,
        )
        for name in benchmarks
        for config in EFF_CONFIGS
    }


def run_bench(smoke: bool = False, repeats: int = 2) -> dict:
    """Run the cold and warm sessions; return the comparison record.

    The *cold* session is a fresh engine generating the full grid and
    persisting its frequency plans; the *warm* session is a fresh engine
    — what a brand-new process would construct — that loads the file and
    regenerates the same grid.  Each session style is timed best-of
    ``repeats``; the identity and zero-search checks run on every
    repeat.
    """
    benchmarks = SMOKE_BENCHMARKS if smoke else FULL_BENCHMARKS
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    local_trials = SMOKE_LOCAL_TRIALS if smoke else FULL_LOCAL_TRIALS

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "design_cache.json"

        cold_time = float("inf")
        cold_grid = None
        cold_allocations = saved_entries = 0
        for _repeat in range(repeats):
            cache_path.unlink(missing_ok=True)
            # Unbounded frequency cache, mirroring the production warm path
            # (Session.design_engine): the zero-search guarantee must hold
            # however large the grid grows, so the sessions must not shed
            # plans to an LRU bound before persisting or after loading.
            engine = DesignEngine(frequency_cache=DesignCache(max_entries=None))
            # A cold session means a fresh process: the allocator's
            # process-wide ranking/noise caches (PR 5) must not leak
            # across the benchmark's repeated "sessions".
            reset_shared_caches()
            calls_before = _allocation_calls()
            start = time.perf_counter()
            grid = _generate_grid(benchmarks, seeds, local_trials, engine)
            saved_entries = engine.frequency_cache.merge_save(cache_path)
            elapsed = time.perf_counter() - start
            if elapsed < cold_time:
                cold_time = elapsed
            cold_allocations = _allocation_calls() - calls_before
            if cold_grid is None:
                cold_grid = grid
        cache_bytes = cache_path.stat().st_size

        warm_time = float("inf")
        warm_grid = None
        warm_allocations = loaded_entries = 0
        for _repeat in range(repeats):
            # A new process's engine: empty stages, unbounded like production.
            engine = DesignEngine(frequency_cache=DesignCache(max_entries=None))
            calls_before = _allocation_calls()
            start = time.perf_counter()
            loaded_entries = engine.frequency_cache.load(cache_path)
            grid = _generate_grid(benchmarks, seeds, local_trials, engine)
            elapsed = time.perf_counter() - start
            warm_allocations = max(warm_allocations, _allocation_calls() - calls_before)
            if elapsed < warm_time:
                warm_time = elapsed
            if warm_grid is None:
                warm_grid = grid

    rows = []
    all_identical = True
    for name in benchmarks:
        for config in EFF_CONFIGS:
            cold = cold_grid[(name, config.value)]
            warm = warm_grid[(name, config.value)]
            identical = (
                len(cold) == len(warm)
                and all(_fingerprint(a) == _fingerprint(b) for a, b in zip(cold, warm))
            )
            all_identical &= identical
            rows.append({
                "benchmark": name,
                "config": config.value,
                "architectures": len(warm),
                "identical": identical,
            })

    return {
        "bench": "design_cache",
        "smoke": smoke,
        "repeats": repeats,
        "benchmarks": list(benchmarks),
        "random_bus_seeds": list(seeds),
        "frequency_local_trials": local_trials,
        "cache_entries": saved_entries,
        "cache_loaded_entries": loaded_entries,
        "cache_file_bytes": cache_bytes,
        "cold_session_time_s": round(cold_time, 4),
        "warm_session_time_s": round(warm_time, 6),
        "warm_speedup": round(cold_time / warm_time, 1) if warm_time else None,
        "cold_allocation_calls": cold_allocations,
        "warm_allocation_calls": warm_allocations,
        "all_identical": all_identical,
        "rows": rows,
    }


def render_table(record: dict) -> str:
    lines = [
        "Warm-session design cache vs cold session "
        f"({len(record['benchmarks'])} benchmarks x {len(EFF_CONFIGS)} configurations, "
        f"best of {record['repeats']})",
        "",
        f"{'benchmark':<16} {'configuration':<16} {'architectures':>13} {'identical':>9}",
    ]
    for row in record["rows"]:
        lines.append(
            f"{row['benchmark']:<16} {row['config']:<16} "
            f"{row['architectures']:>13} {str(row['identical']):>9}"
        )
    lines += [
        "",
        f"cold session (generate + persist) : {record['cold_session_time_s'] * 1e3:9.1f} ms "
        f"({record['cold_allocation_calls']} Algorithm 3 searches)",
        f"warm session (load + regenerate)  : {record['warm_session_time_s'] * 1e3:9.2f} ms "
        f"({record['warm_allocation_calls']} Algorithm 3 searches)",
        f"warm speedup                      : {record['warm_speedup']}x",
        f"cache file: {record['cache_entries']} plans, "
        f"{record['cache_file_bytes']} bytes",
    ]
    return "\n".join(lines)


def check_record(record: dict, min_speedup: float = MIN_SPEEDUP) -> None:
    """The acceptance assertions shared by the test and script entry points."""
    broken = [row for row in record["rows"] if not row["identical"]]
    assert not broken, f"warm-session architectures differ from the cold session: {broken}"
    assert record["warm_allocation_calls"] == 0, (
        f"warm session ran {record['warm_allocation_calls']} Algorithm 3 "
        "Monte Carlo searches; a populated design cache must serve them all"
    )
    assert record["cold_allocation_calls"] > 0, (
        "cold session ran no Algorithm 3 searches — the benchmark measured nothing"
    )
    assert record["cache_loaded_entries"] == record["cache_entries"], (
        "the warm session failed to load every persisted plan"
    )
    assert record["warm_speedup"] >= min_speedup, (
        f"warm-session speedup {record['warm_speedup']:.2f}x "
        f"below the {min_speedup}x bar"
    )


def _write_json(record: dict, path: Optional[Path]) -> Path:
    path = path or (RESULTS_DIR / "BENCH_design_cache.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def test_design_cache_warm_session():
    """Pytest entry: smoke grid, same assertions as the CI smoke job."""
    record = run_bench(smoke=True)
    write_result("table_design_cache", render_table(record))
    _write_json(record, None)
    check_record(record, min_speedup=CI_MIN_SPEEDUP)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid (CI smoke job)")
    parser.add_argument("--json", type=Path, default=None,
                        help="JSON output path "
                             "(default benchmarks/results/BENCH_design_cache.json)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of repeats per session style (default 2)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help=f"speedup assertion floor (default {MIN_SPEEDUP}; "
                             f"CI uses {CI_MIN_SPEEDUP} to tolerate noisy shared runners)")
    args = parser.parse_args(argv)
    record = run_bench(smoke=args.smoke, repeats=args.repeats)
    write_result("table_design_cache", render_table(record))
    json_path = _write_json(record, args.json)
    print(render_table(record))
    print(f"\nJSON record: {json_path}")
    check_record(record, min_speedup=args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
