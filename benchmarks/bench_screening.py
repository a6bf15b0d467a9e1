"""Screening-engine benchmark: the cold Algorithm 3 path vs the PR 4 scorer.

Regenerates the evidence for the exact interval-count screening engine's
claims on the evaluation grid's frequency-allocation workload:

* **Identity** — for every unique collision structure of the grid (the
  ``eff-full`` bus series plus the ``eff-rd-bus`` seed clouds, deduped
  exactly as the design engine's frequency stage dedups them), the
  screened scorer with its shared ranking caches produces **bit-identical**
  frequency plans to a faithful replica of the PR 4 scorer (full joint
  Monte Carlo kernel on every candidate, per-allocation noise draws, no
  cross-architecture sharing).  Byte-identical sweep outputs for
  screening on vs off are asserted separately at the generation level.
* **Joint-kernel elimination** — the screen decides almost every
  candidate from exact per-event interval counts: the joint Monte Carlo
  kernel runs on only a few percent of candidate rows (reported as
  ``joint_kernel_row_fraction``), and the pruned-candidate fraction —
  candidates provably discarded without ever touching the joint kernel —
  is recorded alongside it.
* **Cold-path speedup** — the cold session (process caches cleared) runs
  at least ``MIN_SPEEDUP`` times faster than the PR 4 replica: ~4.4x
  measured on the reference machine's full grid with the fused merge
  kernel (native backend), up from ~2.4x before fusion (the pre-fusion
  record is kept in ``benchmarks/baselines/``).  The ratio composes the
  fused single-pass merge kernel (in-band packed endpoints, one sweep
  for both widened and narrowed counts), cross-qubit batched rankings
  over each BFS wave, the process-wide CRN noise-tensor cache, and the
  cross-architecture ranking memo.  The JSON record carries the active
  screening backend and the pack/merge/dispute/joint phase breakdown so
  the perf trajectory can attribute drift to a phase.

Run styles:

* ``python benchmarks/bench_screening.py [--smoke] [--json PATH]`` —
  standalone; writes a text table to ``benchmarks/results/`` and a JSON
  record (default ``benchmarks/results/BENCH_screening.json``) for the
  CI perf-trajectory artifact.
* ``python -m pytest benchmarks/bench_screening.py`` — same run wrapped
  in a test with the identity/elimination/speedup assertions.
"""

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).parent))

from repro.benchmarks import get_benchmark
from repro.collision import active_backend
from repro.design import DesignEngine, FrequencyAllocator, reset_shared_caches
from repro.design.engine import (
    BusStrategy,
    DesignOptions,
    FrequencyStrategy,
    architecture_collision_key,
)
from repro.runtime.metrics import diff_snapshots, empty_snapshot, global_metrics

from _bench_utils import RESULTS_DIR, write_result

#: Minimum acceptable cold-path speedup over the PR 4 scorer replica on
#: the full grid (~4.4x on the reference machine with the fused native
#: merge kernel).
MIN_SPEEDUP = 4.0

#: Full-grid floor when the native kernel is unavailable or disabled:
#: the pure-numpy fallback runs the same fused algorithm without the
#: C row sweep (~2x on the reference machine).
FALLBACK_MIN_SPEEDUP = 1.5

#: Relaxed floor used for the smoke grid and shared CI runners — the
#: smoke grid shares fewer rankings (fewer seeds and benchmarks), CI
#: runners are noisy, and the forced-numpy fallback leg gives up the
#: native kernel's edge; the JSON artifact records the true ratio
#: either way, so the perf trajectory catches slow drift.
CI_MIN_SPEEDUP = 1.25

#: Ceiling on the fraction of candidate rows the joint kernel may still
#: score under screening (PR 4 scored 100% of them).
MAX_JOINT_ROW_FRACTION = 0.10

SMOKE_BENCHMARKS = ("sym6_145", "z4_268")
FULL_BENCHMARKS = SMOKE_BENCHMARKS + ("adr4_197", "qft_16", "ising_model_16")

SMOKE_SEEDS = (1, 2)
FULL_SEEDS = (1, 2, 3, 4, 5)

SMOKE_LOCAL_TRIALS = 800
FULL_LOCAL_TRIALS = 2000

#: The ``screening/<phase>`` timers of the cold path, in reporting order.
PHASES = ("pack", "merge", "dispute", "joint")


def _clear_process_caches() -> None:
    """Reset the allocator's process-wide caches: a true cold session."""
    reset_shared_caches()


def grid_structures(benchmarks, seeds):
    """Unique collision structures of the eff-full + eff-rd-bus grid.

    Deduplication by :func:`architecture_collision_key` mirrors the
    design engine's frequency stage: both the new and the PR 4 flow run
    Algorithm 3 once per unique structure, so timing these allocations
    is exactly timing the grid's cold Algorithm 3 path.
    """
    engine = DesignEngine()
    structures = {}
    for name in benchmarks:
        circuit = get_benchmark(name)
        limit = engine.max_four_qubit_buses(circuit)
        cheap = DesignOptions(frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY)
        for buses in range(limit + 1):
            arch = engine.design(circuit, buses, cheap)
            structures.setdefault(architecture_collision_key(arch), arch)
        for seed in seeds:
            options = DesignOptions(
                bus_strategy=BusStrategy.RANDOM,
                random_bus_seed=seed,
                frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY,
            )
            for buses in range(1, limit + 1):
                arch = engine.design(circuit, buses, options)
                structures.setdefault(architecture_collision_key(arch), arch)
    return list(structures.values())


def run_bench(smoke: bool = False, repeats: int = 3) -> dict:
    """Time the cold screened scorer against the PR 4 replica."""
    benchmarks = SMOKE_BENCHMARKS if smoke else FULL_BENCHMARKS
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    local_trials = SMOKE_LOCAL_TRIALS if smoke else FULL_LOCAL_TRIALS

    structures = grid_structures(benchmarks, seeds)
    screened_allocator = FrequencyAllocator(local_trials=local_trials)
    replica_allocator = FrequencyAllocator(
        local_trials=local_trials, screening=False, shared_caches=False
    )

    # Identity first (also warms nothing: each repeat below starts cold).
    _clear_process_caches()
    screened_plans = [screened_allocator.allocate(a) for a in structures]
    replica_plans = [replica_allocator.allocate(a) for a in structures]
    identical = screened_plans == replica_plans

    screened_time = float("inf")
    delta = empty_snapshot()
    for _repeat in range(repeats):
        _clear_process_caches()
        before = global_metrics().snapshot()
        start = time.perf_counter()
        for architecture in structures:
            screened_allocator.allocate(architecture)
        elapsed = time.perf_counter() - start
        if elapsed < screened_time:
            screened_time = elapsed
            delta = diff_snapshots(global_metrics().snapshot(), before)

    replica_time = float("inf")
    for _repeat in range(repeats):
        start = time.perf_counter()
        for architecture in structures:
            replica_allocator.allocate(architecture)
        replica_time = min(replica_time, time.perf_counter() - start)

    stats = {
        name[len("screening/"):]: value
        for name, value in delta["counters"].items()
        if name.startswith("screening/")
    }
    candidates = max(1, stats.get("candidates", 0))
    phase_ns = {
        f"{phase}_ns": round(
            delta["timers"].get(f"screening/{phase}", {}).get("total_s", 0.0) * 1e9
        )
        for phase in PHASES
    }
    screen_ns = max(1, sum(phase_ns.values()))
    return {
        "bench": "screening",
        "smoke": smoke,
        "repeats": repeats,
        "screening_backend": active_backend(),
        "screening_phase_ns": phase_ns,
        "screening_phase_fraction": {
            key: round(value / screen_ns, 4) for key, value in phase_ns.items()
        },
        "benchmarks": list(benchmarks),
        "random_bus_seeds": list(seeds),
        "frequency_local_trials": local_trials,
        "unique_structures": len(structures),
        "all_identical": identical,
        "cold_screened_time_s": round(screened_time, 4),
        "pr4_replica_time_s": round(replica_time, 4),
        "cold_speedup": round(replica_time / screened_time, 2) if screened_time else None,
        "screened_ranking_calls": stats.get("calls", 0),
        "screened_candidates": stats.get("candidates", 0),
        "pruned_candidates": stats.get("pruned", 0),
        "pruned_candidate_fraction": round(stats.get("pruned", 0) / candidates, 4),
        "bound_decided_fraction": round(
            (stats.get("pruned", 0) + stats.get("exact", 0)) / candidates, 4
        ),
        "joint_kernel_rows": stats.get("verified", 0),
        "joint_kernel_row_fraction": round(stats.get("verified", 0) / candidates, 4),
    }


def render_table(record: dict) -> str:
    lines = [
        "Cold Algorithm 3: screened scorer vs PR 4 joint-kernel replica "
        f"({len(record['benchmarks'])} benchmarks, "
        f"{record['unique_structures']} unique structures, "
        f"best of {record['repeats']})",
        "",
        f"bit-identical plans            : {record['all_identical']}",
        f"cold screened session          : {record['cold_screened_time_s'] * 1e3:9.1f} ms",
        f"PR 4 scorer replica            : {record['pr4_replica_time_s'] * 1e3:9.1f} ms",
        f"cold-path speedup              : {record['cold_speedup']}x",
        f"screening backend              : {record['screening_backend']}",
        "phase breakdown                : " + "  ".join(
            f"{key[:-3]} {record['screening_phase_ns'][key] / 1e6:.1f}ms"
            f" ({record['screening_phase_fraction'][key]:.0%})"
            for key in record["screening_phase_ns"]
        ),
        "",
        f"screened ranking calls         : {record['screened_ranking_calls']}",
        f"candidates entering the screen : {record['screened_candidates']}",
        f"pruned by bounds (never scored): {record['pruned_candidates']} "
        f"({record['pruned_candidate_fraction']:.1%})",
        f"decided by bounds overall      : {record['bound_decided_fraction']:.1%}",
        f"joint-kernel candidate rows    : {record['joint_kernel_rows']} "
        f"({record['joint_kernel_row_fraction']:.1%}; the PR 4 scorer ran 100%)",
    ]
    return "\n".join(lines)


def check_record(record: dict, min_speedup: float = MIN_SPEEDUP) -> None:
    """The acceptance assertions shared by the test and script entry points."""
    assert record["all_identical"], (
        "screened frequency plans differ from the PR 4 scorer replica — "
        "winner preservation is broken"
    )
    assert record["screened_candidates"] > 0, "the screen never ran"
    assert record["joint_kernel_row_fraction"] <= MAX_JOINT_ROW_FRACTION, (
        f"the joint kernel still scored "
        f"{record['joint_kernel_row_fraction']:.1%} of candidate rows "
        f"(ceiling {MAX_JOINT_ROW_FRACTION:.0%})"
    )
    assert record["cold_speedup"] >= min_speedup, (
        f"cold-path speedup {record['cold_speedup']:.2f}x "
        f"below the {min_speedup}x floor"
    )


def _write_json(record: dict, path: Optional[Path]) -> Path:
    path = path or (RESULTS_DIR / "BENCH_screening.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def test_screening_cold_path():
    """Pytest entry: smoke grid, same assertions as the CI smoke job."""
    record = run_bench(smoke=True)
    write_result("table_screening", render_table(record))
    _write_json(record, None)
    check_record(record, min_speedup=CI_MIN_SPEEDUP)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid (CI smoke job)")
    parser.add_argument("--json", type=Path, default=None,
                        help="JSON output path "
                             "(default benchmarks/results/BENCH_screening.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per scorer (default 3)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help=f"speedup assertion floor (default {MIN_SPEEDUP}, "
                             f"or {CI_MIN_SPEEDUP} with --smoke; CI uses the "
                             "smoke floor to tolerate noisy shared runners)")
    args = parser.parse_args(argv)
    if args.min_speedup is None:
        if args.smoke:
            args.min_speedup = CI_MIN_SPEEDUP
        elif active_backend() == "native":
            args.min_speedup = MIN_SPEEDUP
        else:
            args.min_speedup = FALLBACK_MIN_SPEEDUP
    record = run_bench(smoke=args.smoke, repeats=args.repeats)
    write_result("table_screening", render_table(record))
    json_path = _write_json(record, args.json)
    print(render_table(record))
    print(f"\nJSON record: {json_path}")
    check_record(record, min_speedup=args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
