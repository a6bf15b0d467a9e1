"""Command-line interface: ``repro-design``.

Subcommands:

* ``profile <benchmark>`` — print the coupling strength matrix and the
  coupling degree list of a benchmark (paper Section 3).
* ``design <benchmark>`` — run the full design flow and print the
  generated architecture series with yield estimates.
* ``sweep <benchmark> [...]`` (alias ``evaluate``) — run the Figure 10
  experiment grid for one or more benchmarks and print the data tables
  and ASCII Pareto plots.  The grid can be sharded across worker
  processes (``--jobs N``); per-point seeds make the results
  byte-identical for every job count.
* ``cache migrate <src> <dst>`` — copy a legacy persisted cache store
  (routing cache, design cache, or sweep checkpoint; one JSON file or a
  sharded directory) into a SQLite store.
* ``list`` — list the available benchmarks.

``sweep`` resolves its flags into one frozen
:class:`~repro.runtime.config.RuntimeConfig` (optionally seeded from a
``--runtime-config`` JSON file) and runs on the process's
:class:`~repro.runtime.session.Session` for that config; ``--metrics-out``
writes the merged structured metrics report of the invocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.benchmarks.library import BENCHMARK_NAMES, benchmark_info, get_benchmark
from repro.persistence import atomic_write_text, check_store_path
from repro.collision.yield_simulator import YieldSimulator
from repro.design.frequency_allocation import ALLOCATION_STRATEGIES
from repro.design.flow import DesignFlow, DesignOptions
from repro.evaluation.configs import ExperimentConfig
from repro.evaluation.experiment import DEFAULT_CONFIGS
from repro.evaluation.figures import format_figure10_table
from repro.evaluation.parallel import SweepExecutor
from repro.evaluation.supervisor import SupervisorPolicy
from repro.profiling.profiler import profile_circuit
from repro.runtime.config import DEFAULT_EVALUATION_ROUTING, RuntimeConfig
from repro.visualization.ascii_art import render_architecture, render_coupling_matrix
from repro.visualization.pareto_plot import render_pareto_scatter

#: Parser defaults for the flags that can override a ``--runtime-config``
#: JSON file.  A flag spelled at exactly its default is treated as "not
#: given" and cannot override the file (see :func:`_runtime_config`).
_TRIALS_DEFAULT = 10_000
_LOCAL_TRIALS_DEFAULT = 2000
_ROUTER_RESTARTS_DEFAULT = 1
_ALLOCATION_STRATEGY_DEFAULT = "bfs-greedy"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-design`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-design",
        description="Application-specific superconducting quantum processor architecture design",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available benchmarks")

    profile_parser = subparsers.add_parser("profile", help="profile a benchmark circuit")
    profile_parser.add_argument("benchmark", help="benchmark name (see 'list')")

    design_parser = subparsers.add_parser("design", help="run the design flow on a benchmark")
    design_parser.add_argument("benchmark", help="benchmark name (see 'list')")
    design_parser.add_argument(
        "--buses", type=int, default=None,
        help="maximum number of 4-qubit buses (default: full series)",
    )
    design_parser.add_argument(
        "--trials", type=int, default=10_000, help="Monte Carlo trials for yield estimation"
    )
    _add_allocation_strategy_argument(design_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", aliases=["evaluate"],
        help="run the Figure 10 evaluation grid, optionally sharded across "
             "worker processes",
    )
    sweep_parser.add_argument("benchmarks", nargs="+", help="benchmark names (see 'list')")
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker process count (results are identical for any value)",
    )
    sweep_parser.add_argument("--trials", type=int, default=_TRIALS_DEFAULT)
    sweep_parser.add_argument(
        "--configs", nargs="+", default=None,
        choices=[config.value for config in ExperimentConfig],
        help="experiment configurations to sweep (default: all five)",
    )
    sweep_parser.add_argument(
        "--plot", action="store_true", help="also print an ASCII Pareto scatter plot"
    )
    sweep_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="sweep checkpoint store (SQLite): every completed "
             "generation/evaluation task is recorded into it, so an "
             "interrupted sweep can restart with --resume",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="skip tasks already recorded in the --checkpoint store; the "
             "resumed sweep's output is byte-identical to an uninterrupted "
             "run for any --jobs count",
    )
    sweep_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the sweep results as a deterministic JSON report "
             "(byte-identical for any --jobs count, resumed or not)",
    )
    supervision = sweep_parser.add_argument_group(
        "supervision",
        "fault-tolerant execution: --jobs N > 1 always runs tasks in "
        "supervised workers, where a dead worker or a raising task is "
        "retried and, at worst, quarantined (exit 3 with a partial "
        "report); hung or wedged workers are caught only with "
        "--task-deadline or --heartbeat-timeout.  At --jobs 1 any of "
        "these flags runs the tasks in one supervised worker.  None of "
        "them can change sweep values (retries re-derive the same "
        "content-addressed seeds)",
    )
    supervision.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="kill and retry any task attempt running longer than this",
    )
    supervision.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry a task whose worker has not heartbeat for "
             "this long (catches hangs that hold the GIL)",
    )
    supervision.add_argument(
        "--max-task-retries", type=int, default=None, metavar="N",
        help="retries after a task's first failed attempt before it is "
             "quarantined (default: 2)",
    )
    supervision.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base of the deterministic exponential retry backoff "
             "(default: 0.05)",
    )
    supervision.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="arm a deterministic fault-injection schedule (JSON; see "
             "repro.faults) in this process and every worker — testing "
             "only",
    )
    supervision.add_argument(
        "--failures-out", default=None, metavar="PATH",
        help="write the quarantined-task report as JSON (written even "
             "when empty, so automation can rely on the file)",
    )
    _add_router_arguments(sweep_parser)
    _add_design_arguments(sweep_parser)
    _add_runtime_arguments(sweep_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="maintenance of persisted cache stores"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)
    migrate_parser = cache_subparsers.add_parser(
        "migrate",
        help="copy a legacy cache store (routing cache, design cache, or "
             "sweep checkpoint) into a SQLite store",
    )
    migrate_parser.add_argument(
        "source",
        help="legacy store to read: one JSON file or a sharded directory",
    )
    migrate_parser.add_argument(
        "dest", help="SQLite store to (re)write with the source's full entry list",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the invariant linter (determinism, store discipline, "
             "digest completeness, fork safety)",
    )
    lint_parser.add_argument(
        "targets", nargs="*", default=None,
        help="files or directories to lint (default: src benchmarks examples)",
    )
    lint_parser.add_argument(
        "--root", default=".",
        help="repository root (baseline and rule exemptions resolve against it)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="accepted-findings file (default: <root>/lint-baseline.json)",
    )
    lint_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full disposition as deterministic JSON",
    )
    lint_parser.add_argument(
        "--no-dynamic", action="store_true",
        help="skip the dynamic digest-completeness checks (REPRO-C3xx)",
    )
    lint_parser.add_argument(
        "--update-baseline", action="store_true",
        help="accept every current finding into the baseline with a TODO "
             "justification",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit",
    )
    return parser


def _add_router_arguments(parser: argparse.ArgumentParser) -> None:
    """Routing-engine knobs of ``sweep``."""
    group = parser.add_argument_group("routing engine")
    group.add_argument(
        "--router-passes", type=int, default=DEFAULT_EVALUATION_ROUTING.passes,
        metavar="N",
        help="bidirectional SABRE passes per routing (odd; 1 = forward only, "
             "3 = forward-backward-forward refinement; default: "
             f"{DEFAULT_EVALUATION_ROUTING.passes})",
    )
    group.add_argument(
        "--router-restarts", type=int, default=_ROUTER_RESTARTS_DEFAULT,
        metavar="K",
        help="best-of-K seeded restarts per routing (deterministic)",
    )
    group.add_argument(
        "--routing-cache", default=None, metavar="PATH",
        help="persisted routing-result cache (SQLite, counts only): loaded "
             "before routing — by every worker, for sweeps — and refreshed "
             "after in-process runs, so routing work is reused across "
             "invocations",
    )


def _add_allocation_strategy_argument(target) -> None:
    """The Algorithm 3 strategy flag, defined once for every subcommand.

    ``--allocation-strategy`` is canonical; ``--alloc-strategy`` is kept
    as a compatible alias.  On ``sweep`` the chosen strategy
    applies to the eff-full / eff-rd-bus configurations and stays
    byte-identical for any ``--jobs`` count.
    """
    target.add_argument(
        "--allocation-strategy", "--alloc-strategy", dest="allocation_strategy",
        default=_ALLOCATION_STRATEGY_DEFAULT,
        choices=sorted(ALLOCATION_STRATEGIES),
        help="Algorithm 3 search strategy (default: the paper-exact bfs-greedy)",
    )


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    """Design-engine knobs of ``sweep``."""
    group = parser.add_argument_group("design engine")
    _add_allocation_strategy_argument(group)
    group.add_argument(
        "--design-cache", default=None, metavar="PATH",
        help="persisted design-stage cache (SQLite, Algorithm 3 frequency "
             "plans): loaded before designing — by every worker, "
             "for sweeps — and merged back afterwards, so a warm session "
             "re-derives its architectures without any frequency search",
    )
    group.add_argument(
        "--local-trials", type=int, default=_LOCAL_TRIALS_DEFAULT, metavar="N",
        help="Monte Carlo trials per candidate frequency inside Algorithm 3 "
             "(default: 2000, as in the paper)",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Runtime-session knobs of ``sweep``."""
    group = parser.add_argument_group("runtime session")
    group.add_argument(
        "--runtime-config", default=None, metavar="PATH",
        help="JSON file of RuntimeConfig fields to start from; precedence "
             "is built-in defaults < this file < flags spelled differently "
             "from their parser defaults",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the invocation's merged structured metrics report "
             "(versioned JSON: per-stage cache counters, native-backend "
             "fallbacks, routing swap counts, Monte Carlo call counts, and "
             "wall-time timers, aggregated across all workers) to PATH",
    )


def _usage_error(message: str) -> int:
    """Report invalid input as one ``repro-design: error:`` line; exit status 2."""
    print(f"repro-design: error: {message}", file=sys.stderr)
    return 2


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    """Resolve one frozen ``RuntimeConfig`` for a sweep invocation.

    Precedence: built-in defaults < the ``--runtime-config`` JSON file <
    CLI flags spelled differently from their parser defaults.  (A flag
    given at exactly its default value is indistinguishable from an
    omitted one and cannot override the file.)  Invalid values — even
    router passes, trial counts below 1, malformed config-file fields, an
    unreadable config file, a store path that names a legacy JSON or
    sharded store — exit with status 2.
    """
    try:
        config = (
            RuntimeConfig.from_json(args.runtime_config)
            if args.runtime_config
            else RuntimeConfig()
        )
        routing = config.routing
        if args.router_passes != DEFAULT_EVALUATION_ROUTING.passes:
            routing = dataclasses.replace(routing, passes=args.router_passes)
        if args.router_restarts != _ROUTER_RESTARTS_DEFAULT:
            routing = dataclasses.replace(routing, restarts=args.router_restarts)
        updates = {}
        if routing != config.routing:
            updates["routing"] = routing
        if args.trials != _TRIALS_DEFAULT:
            updates["yield_trials"] = args.trials
        if args.local_trials != _LOCAL_TRIALS_DEFAULT:
            updates["frequency_local_trials"] = args.local_trials
        if args.allocation_strategy != _ALLOCATION_STRATEGY_DEFAULT:
            updates["allocation_strategy"] = args.allocation_strategy
        for flag, field in (("routing_cache", "routing_cache_path"),
                            ("design_cache", "design_cache_path"),
                            ("checkpoint", "checkpoint_path")):
            value = getattr(args, flag)
            if value is not None:
                updates[field] = value
        if args.resume:
            updates["resume"] = True
        if updates:
            config = dataclasses.replace(config, **updates)
        for path in (config.routing_cache_path, config.design_cache_path,
                     config.checkpoint_path):
            if path is not None:
                check_store_path(path)
    except (OSError, ValueError) as error:
        raise SystemExit(_usage_error(str(error))) from None
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-design`` console script."""
    args = build_parser().parse_args(argv)
    # Reject unknown benchmark names before any of them is worked on.
    names = getattr(args, "benchmarks", [])
    if hasattr(args, "benchmark"):
        names = [args.benchmark]
    for name in names:
        try:
            benchmark_info(name)
        except KeyError as error:
            return _usage_error(error.args[0])
    if args.command == "list":
        return _cmd_list()
    if args.command == "profile":
        return _cmd_profile(args.benchmark)
    if args.command == "design":
        return _cmd_design(args.benchmark, args.buses, args.trials, args.allocation_strategy)
    if args.command in ("sweep", "evaluate"):
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache_migrate(args.source, args.dest)
    if args.command == "lint":
        return _cmd_lint(args)
    return 2


def _cmd_lint(args) -> int:
    """Forward ``repro lint`` to the :mod:`repro.analysis` runner."""
    from repro.analysis.runner import main as lint_main

    argv = list(args.targets or [])
    argv += ["--root", args.root]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.report:
        argv += ["--report", args.report]
    if args.no_dynamic:
        argv.append("--no-dynamic")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_list() -> int:
    for name in BENCHMARK_NAMES:
        info = benchmark_info(name)
        origin = "synthetic substitute" if info.synthetic else "exact construction"
        print(f"{name:<18} {info.num_qubits:>2} qubits  {info.domain:<22} ({origin})")
    return 0


def _cmd_profile(benchmark: str) -> int:
    circuit = get_benchmark(benchmark)
    profile = profile_circuit(circuit)
    print(f"benchmark: {circuit.name}  ({circuit.num_qubits} qubits, {len(circuit)} gates, "
          f"{circuit.num_two_qubit_gates} two-qubit gates)")
    print("\ncoupling strength matrix:")
    print(render_coupling_matrix(profile.strength_matrix))
    print("\ncoupling degree list (qubit, degree):")
    for qubit, degree in profile.degree_list:
        print(f"  q{qubit:<3} {degree}")
    return 0


def _cmd_design(benchmark: str, buses: Optional[int], trials: int,
                alloc_strategy: str = "bfs-greedy") -> int:
    if trials < 1:
        return _usage_error(f"--trials must be >= 1, got {trials}")
    if buses is not None and buses < 0:
        return _usage_error(f"--buses must be >= 0, got {buses}")
    circuit = get_benchmark(benchmark)
    flow = DesignFlow(circuit, DesignOptions(allocation_strategy=alloc_strategy))
    simulator = YieldSimulator(trials=trials, seed=7)
    architectures = (
        flow.design_series() if buses is None else [flow.design(max_four_qubit_buses=buses)]
    )
    for architecture in architectures:
        print(render_architecture(architecture))
        estimate = simulator.estimate(architecture)
        print(f"  estimated yield: {estimate.yield_rate:.4f} "
              f"(+- {estimate.standard_error():.4f}, {trials} trials)")
        print()
    return 0


def _print_result(result, plot: bool) -> None:
    print(format_figure10_table(result))
    if plot:
        print()
        print(render_pareto_scatter(result))
    print()


def _sweep_report(names: List[str], results: dict) -> str:
    """The ``sweep --output`` JSON report, deterministically serialized.

    Covers every field of every data point, in sweep enumeration order;
    the text is byte-identical for any ``--jobs`` count and for resumed
    vs. uninterrupted runs — the resume tests diff it directly.
    """
    report = {
        name: [
            {
                "benchmark": point.benchmark,
                "config": point.config.value,
                "architecture_name": point.architecture_name,
                "num_qubits": point.num_qubits,
                "num_connections": point.num_connections,
                "num_four_qubit_buses": point.num_four_qubit_buses,
                "yield_rate": point.yield_rate,
                "total_gates": point.total_gates,
                "num_swaps": point.num_swaps,
                "normalized_reciprocal_gates": point.normalized_reciprocal_gates,
            }
            for point in results[name].points
        ]
        for name in names
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_metrics(path: str, baseline, *, command: str,
                   config: RuntimeConfig, jobs: int) -> None:
    """Emit the ``--metrics-out`` report: everything since ``baseline``.

    The global registry already holds the worker deltas (the sweep
    executor merges each task's snapshot diff back into the parent), so
    one diff against the command-start baseline covers every stage of
    every worker.
    """
    from repro.runtime.metrics import (
        diff_snapshots,
        global_metrics,
        metrics_report,
        write_metrics,
    )

    snapshot = diff_snapshots(global_metrics().snapshot(), baseline)
    write_metrics(path, metrics_report(
        snapshot, command=command, config_digest=config.digest(), jobs=jobs,
    ))


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep`` and its ``evaluate`` alias: score the Figure 10 grid.

    Invalid input exits with status 2 before any benchmark is built or
    any worker forks.
    """
    from repro import faults
    from repro.runtime.metrics import global_metrics

    if args.resume and not (args.checkpoint or args.runtime_config):
        return _usage_error("--resume requires --checkpoint")
    config = _runtime_config(args)
    configs = (
        tuple(ExperimentConfig(value) for value in args.configs)
        if args.configs
        else DEFAULT_CONFIGS
    )
    # The executor supervises every --jobs N > 1 sweep.  The supervision
    # knobs default to None, so spelling any of them — or a fault plan,
    # which only supervised workers survive — also supervises --jobs 1.
    knobs = {
        "task_deadline_s": args.task_deadline,
        "heartbeat_timeout_s": args.heartbeat_timeout,
        "max_task_retries": args.max_task_retries,
        "backoff_base_s": args.retry_backoff,
    }
    knobs = {name: value for name, value in knobs.items() if value is not None}
    supervised = bool(knobs or args.fault_plan or args.failures_out)
    try:
        if args.fault_plan:
            # Load eagerly: workers read the plan lazily at the first
            # injection site, where a missing/invalid file would surface as
            # an "error" failure on every task and quarantine the whole
            # sweep instead of failing here, before any work starts.
            faults.FaultPlan.load(args.fault_plan)
        executor = SweepExecutor(
            settings=config, configs=configs, jobs=args.jobs,
            policy=SupervisorPolicy(**knobs) if supervised else None,
        )
    except (OSError, ValueError) as error:
        return _usage_error(str(error))
    baseline = global_metrics().snapshot()
    # Collapse aliases/duplicates onto the sweep's keys; building each
    # circuit here also memoizes it before any worker forks.
    names = list(dict.fromkeys(get_benchmark(name).name for name in args.benchmarks))
    previous_plan = os.environ.get(faults.FAULT_PLAN_ENV)
    if args.fault_plan:
        # Arm via the environment so forked workers inherit the plan.
        os.environ[faults.FAULT_PLAN_ENV] = args.fault_plan
        faults.reset()
    try:
        results = executor.run(names)
    finally:
        if args.fault_plan:
            if previous_plan is None:
                os.environ.pop(faults.FAULT_PLAN_ENV, None)
            else:
                os.environ[faults.FAULT_PLAN_ENV] = previous_plan
            faults.reset()
    if args.output:
        atomic_write_text(args.output, _sweep_report(names, results))
    for name in names:
        _print_result(results[name], args.plot)
    if args.metrics_out:
        # The command name as typed: "sweep" or its "evaluate" alias.
        _write_metrics(args.metrics_out, baseline, command=args.command,
                       config=config, jobs=args.jobs)
    if args.failures_out:
        atomic_write_text(
            args.failures_out,
            json.dumps(executor.failure_report(), indent=2, sort_keys=True) + "\n",
        )
    if executor.failures:
        print(
            f"repro-design: sweep completed with {len(executor.failures)} quarantined "
            "task(s); their points are missing from the results above",
            file=sys.stderr,
        )
        for item in executor.failures:
            where = item.benchmark + "/" + item.config + (
                f"#{item.arch_index}" if item.arch_index is not None else ""
            )
            reasons = ",".join(failure.reason for failure in item.failures)
            print(
                f"repro-design:   quarantined {item.task} task {where} "
                f"after {item.attempts} attempts ({reasons})",
                file=sys.stderr,
            )
        return 3
    return 0


def _cmd_cache_migrate(source: str, dest: str) -> int:
    """``repro-design cache migrate``: copy a legacy store into SQLite.

    The source's cache kind is detected by reading it under each known
    envelope in turn (routing cache, design cache, sweep checkpoint);
    every reader fails loud with :class:`WrongFormatError` on another
    kind's data, so the first successful read identifies the store.
    """
    from repro.design.engine import DesignCache
    from repro.evaluation.checkpoint import SweepCheckpoint
    from repro.mapping.engine import RoutingCache
    from repro.persistence import WrongFormatError, migrate_store

    try:
        check_store_path(dest)
    except ValueError as error:
        return _usage_error(str(error))
    kinds = (
        ("routing cache", RoutingCache.FORMAT, RoutingCache.VERSION,
         RoutingCache._record_key),
        ("design cache", DesignCache.FORMAT, DesignCache.VERSION,
         DesignCache._record_key),
        ("sweep checkpoint", SweepCheckpoint.FORMAT, SweepCheckpoint.VERSION,
         SweepCheckpoint._record_key),
    )
    for kind, file_format, version, key_of in kinds:
        try:
            count = migrate_store(source, dest, file_format, version, key_of,
                                  kind=kind)
        except FileNotFoundError:
            return _usage_error(f"cache store not found: {source}")
        except (WrongFormatError, ValueError):
            continue
        print(f"migrated {count} {kind} entries: {source} -> {dest}")
        return 0
    return _usage_error(f"{source} is not a recognized cache store")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
