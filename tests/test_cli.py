"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_subcommand(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "sym6_145"])
        assert args.buses is None
        assert args.trials == 10_000

    def test_evaluate_accepts_multiple_benchmarks(self):
        args = build_parser().parse_args(["evaluate", "sym6_145", "qft_16", "--plot"])
        assert args.benchmarks == ["sym6_145", "qft_16"]
        assert args.plot

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "sym6_145"])
        assert args.command == "sweep"
        assert args.jobs == 1
        assert args.trials == 10_000
        assert args.configs is None

    def test_sweep_accepts_jobs_and_configs(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "qft_16", "--jobs", "4", "--configs", "eff-full"]
        )
        assert args.benchmarks == ["sym6_145", "qft_16"]
        assert args.jobs == 4
        assert args.configs == ["eff-full"]

    def test_sweep_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "sym6_145", "--configs", "nope"])

    def test_router_knob_defaults(self):
        for command in ("evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.router_passes == 3
            assert args.router_restarts == 1

    def test_router_knobs_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--router-passes", "3", "--router-restarts", "4"]
        )
        assert args.router_passes == 3
        assert args.router_restarts == 4

    def test_even_router_passes_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "sym6_145", "--trials", "50", "--router-passes", "2"])

    def test_design_knob_defaults(self):
        for command in ("evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.allocation_strategy == "bfs-greedy"
            assert args.design_cache is None
            assert args.local_trials == 2000

    def test_design_knobs_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--allocation-strategy", "coordinate-descent",
             "--design-cache", "plans.json", "--local-trials", "500"]
        )
        assert args.allocation_strategy == "coordinate-descent"
        assert args.design_cache == "plans.json"
        assert args.local_trials == 500

    def test_unknown_allocation_strategy_rejected(self):
        for command in ("evaluate", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "sym6_145", "--allocation-strategy", "nope"]
                )

    def test_all_commands_accept_both_strategy_spellings(self):
        for command in ("design", "evaluate", "sweep"):
            for flag in ("--allocation-strategy", "--alloc-strategy"):
                args = build_parser().parse_args(
                    [command, "sym6_145", flag, "coordinate-descent"]
                )
                assert args.allocation_strategy == "coordinate-descent"

    def test_cache_stats_flag(self):
        """Retired in favour of --metrics-out; the parser rejects it."""
        for command in ("evaluate", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "sym6_145", "--cache-stats"])

    def test_sweep_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--checkpoint", "ck.sqlite", "--resume",
             "--output", "report.json"]
        )
        assert args.checkpoint == "ck.sqlite"
        assert args.resume is True
        assert args.output == "report.json"

    def test_sweep_checkpoint_defaults(self):
        args = build_parser().parse_args(["sweep", "sym6_145"])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.output is None


class TestCommands:
    def test_list_outputs_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "sym6_145" in output
        assert "qft_16" in output
        assert "synthetic substitute" in output

    def test_profile_outputs_matrix_and_degree_list(self, capsys):
        assert main(["profile", "sym6_145"]) == 0
        output = capsys.readouterr().out
        assert "coupling strength matrix" in output
        assert "coupling degree list" in output

    def test_design_with_explicit_bus_count(self, capsys):
        assert main(["design", "sym6_145", "--buses", "1", "--trials", "500"]) == 0
        output = capsys.readouterr().out
        assert "estimated yield" in output
        assert "Architecture:" in output

    @staticmethod
    def _assert_unknown_benchmark_error(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro-design: error: unknown benchmark 'nosuch'"), captured.err
        assert captured.err.count("\n") == 1, captured.err

    def test_unknown_benchmark_raises(self, capsys):
        """Unknown names exit 2 with a one-line error, before any benchmark runs."""
        for argv in (["profile", "nosuch"], ["design", "nosuch"],
                     ["evaluate", "nosuch"],
                     ["evaluate", "sym6_145", "nosuch", "--trials", "200"]):
            assert main(argv) == 2
            self._assert_unknown_benchmark_error(capsys)

    def test_sweep_prints_table(self, capsys):
        assert main(
            ["sweep", "sym6_145", "--jobs", "2", "--trials", "300",
             "--configs", "eff-layout-only"]
        ) == 0
        output = capsys.readouterr().out
        assert "sym6_145" in output
        assert "eff-layout-only" in output

    def test_evaluate_is_an_alias_of_sweep(self, capsys):
        """``evaluate`` runs the sweep pipeline: the same bytes for the same
        flags, and a repeated name collapses onto one result block."""
        argv = ["sym6_145", "--trials", "200", "--local-trials", "100"]
        assert main(["sweep", *argv]) == 0
        swept = capsys.readouterr().out
        assert "sym6_145" in swept
        assert main(["evaluate", *argv]) == 0
        assert capsys.readouterr().out == swept
        assert main(["evaluate", "sym6_145", *argv]) == 0
        assert capsys.readouterr().out == swept

    def test_sweep_unknown_benchmark_raises_before_forking(
        self, capsys, allocation_calls
    ):
        allocation_calls.reset()
        assert main(["sweep", "sym6_145", "nosuch", "--jobs", "2"]) == 2
        self._assert_unknown_benchmark_error(capsys)
        assert allocation_calls() == 0


class TestDesignCacheRoundTrip:
    """CLI round trips of --design-cache / --allocation-strategy."""

    FAST = ["--trials", "200", "--local-trials", "60"]

    def test_evaluate_warm_cache_is_byte_identical_without_searches(
        self, tmp_path, capsys, allocation_calls
    ):
        cache = str(tmp_path / "design_cache.json")
        assert main(["evaluate", "sym6_145", *self.FAST, "--design-cache", cache]) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / "design_cache.json").exists()

        allocation_calls.reset()
        assert main(["evaluate", "sym6_145", *self.FAST, "--design-cache", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert allocation_calls() == 0

    def test_sweep_warm_cache_output_identical_across_jobs(self, tmp_path, capsys):
        """The acceptance grid at the CLI surface: with a warm cache and the
        coordinate-descent ablation, sweep output is byte-identical for
        --jobs 1 vs --jobs 4."""
        cache = str(tmp_path / "design_cache.json")
        ablation = ["sweep", "sym6_145", *self.FAST, "--configs", "eff-full",
                    "--design-cache", cache, "--allocation-strategy",
                    "coordinate-descent"]
        assert main([*ablation, "--jobs", "1"]) == 0
        warm_serial = capsys.readouterr().out
        assert (tmp_path / "design_cache.json").exists()
        assert main([*ablation, "--jobs", "4"]) == 0
        warm_parallel = capsys.readouterr().out
        assert warm_parallel == warm_serial

    def test_ablation_changes_sweep_output(self, tmp_path, capsys):
        assert main(["sweep", "sym6_145", *self.FAST, "--configs", "eff-full"]) == 0
        base = capsys.readouterr().out
        assert main(["sweep", "sym6_145", *self.FAST, "--configs", "eff-full",
                     "--allocation-strategy", "coordinate-descent"]) == 0
        ablation = capsys.readouterr().out
        assert ablation != base


class TestCacheBackendFlag:
    """Every store is SQLite; a path naming a legacy JSON or sharded store
    (or a backend prefix) and any other invalid input exit 2 before any
    work."""

    FAST = ["--trials", "200", "--local-trials", "60"]

    def test_evaluate_writes_sqlite_design_cache(self, tmp_path, capsys):
        cache = tmp_path / "design-cache"
        assert main(["evaluate", "sym6_145", *self.FAST,
                     "--design-cache", str(cache)]) == 0
        capsys.readouterr()
        assert cache.read_bytes().startswith(b"SQLite format 3\x00")

    def test_legacy_store_paths_exit_2_naming_cache_migrate(
            self, tmp_path, capsys, allocation_calls):
        from legacy_stores import write_legacy_json, write_legacy_sharded
        from repro.design.engine import DesignCache

        def key_of(record):
            return record["key"]

        entries = [{"key": ["k"], "frequencies": {"0": 5.0}}]
        legacy_file = write_legacy_json(
            tmp_path / "plans.json", DesignCache.FORMAT, 1, entries, key_of)
        legacy_dir = write_legacy_sharded(
            tmp_path / "plans-dir", DesignCache.FORMAT, 1, entries, key_of)
        prefixed = f"sqlite:{tmp_path / 'fresh.sqlite'}"

        def snapshot():
            return sorted(
                (str(path), path.read_bytes() if path.is_file() else None)
                for path in tmp_path.rglob("*")
            )

        before = snapshot()
        for flag in ("--routing-cache", "--design-cache", "--checkpoint"):
            for value in (str(legacy_file), str(legacy_dir), prefixed):
                with pytest.raises(SystemExit) as exited:
                    main(["sweep", "sym6_145", *self.FAST, flag, value])
                assert exited.value.code == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                (line,) = captured.err.splitlines()
                assert line.startswith("repro-design: error:")
                assert "repro-design cache migrate" in line, line
        # Nothing was read, renamed, quarantined or created.
        assert snapshot() == before
        assert not os.path.exists(prefixed)
        assert allocation_calls() == 0

    def test_runtime_config_store_paths_are_guarded(self, tmp_path, capsys):
        """Store paths read from a --runtime-config file meet the same guard."""
        legacy = tmp_path / "routes"
        legacy.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"routing_cache_path": str(legacy)}))
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "sym6_145", *self.FAST, "--runtime-config", str(config)])
        assert exited.value.code == 2
        assert "repro-design cache migrate" in capsys.readouterr().err
        assert list(legacy.iterdir()) == []

    def test_resume_without_checkpoint_is_an_error(self, tmp_path, capsys,
                                                   allocation_calls):
        """Like every invalid configuration: exit 2 with a one-line error."""
        assert main(["sweep", "sym6_145", *self.FAST, "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err
        cases = [
            (["--trials", "0"], "yield_trials must be >= 1"),
            (["--local-trials", "0"], "frequency_local_trials must be >= 1"),
        ]
        for name, payload in (("routing", {"routing": {"bogus": 1}}),
                              ("seeds", {"random_bus_seeds": 5})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            cases.append((["--runtime-config", str(path)], name))
        for command in ("evaluate", "sweep"):
            for argv, message in cases:
                with pytest.raises(SystemExit) as exited:
                    main([command, "sym6_145", *argv])
                assert exited.value.code == 2
                err = capsys.readouterr().err
                assert err.startswith("repro-design: error:") and message in err, err
        rejected = [
            (["sweep", "sym6_145", "--jobs", "0"], "jobs must be >= 1"),
            (["sweep", "sym6_145", "--fault-plan", str(tmp_path / "missing.json")],
             "missing.json"),
            (["design", "sym6_145", "--trials", "0"], "--trials must be >= 1"),
            (["design", "sym6_145", "--buses", "-1"], "--buses must be >= 0"),
            (["sweep", "sym6_145", "--max-task-retries", "-1"],
             "max_task_retries must be >= 0"),
            (["sweep", "sym6_145", "--jobs", "2", "--max-task-retries", "-1"],
             "max_task_retries must be >= 0"),
            (["sweep", "sym6_145", "--retry-backoff", "-1"],
             "backoff_base_s must be finite and >= 0"),
            (["sweep", "sym6_145", "--retry-backoff", "nan"],
             "backoff_base_s must be finite and >= 0"),
            (["sweep", "sym6_145", "--task-deadline", "-1"],
             "task_deadline_s must be > 0"),
            (["evaluate", "sym6_145", "--heartbeat-timeout", "0"],
             "heartbeat_timeout_s must be > 0"),
        ]
        for argv, message in rejected:
            allocation_calls.reset()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and allocation_calls() == 0, argv
            assert captured.err.startswith("repro-design: error:"), captured.err
            assert message in captured.err and captured.err.count("\n") == 1, captured.err


class TestScreeningAndStatsFlags:
    FAST = ["--trials", "200", "--local-trials", "60"]

    @staticmethod
    def _drop_process_caches():
        """Drop every cache keyed without the backend, so the second run
        actually recomputes instead of replaying the first run's
        memoized plans."""
        from repro.design import reset_shared_caches
        from repro.evaluation import parallel

        parallel.reset_worker_state()
        reset_shared_caches()

    def test_no_screening_sweep_output_is_byte_identical(
        self, capsys, allocation_calls, merge_backend,
    ):
        """The acceptance criterion at the CLI surface: the screened
        (``native``) and direct (``numpy``) rankings produce
        byte-identical sweep output."""
        base = ["sweep", "sym6_145", *self.FAST, "--configs", "eff-full"]
        merge_backend("native")
        self._drop_process_caches()
        assert main(base) == 0
        screened = capsys.readouterr().out
        merge_backend("numpy")
        self._drop_process_caches()
        allocation_calls.reset()
        assert main(base) == 0
        direct = capsys.readouterr().out
        assert allocation_calls() > 0
        assert direct == screened

    def test_metrics_out_reports_cache_counters(self, tmp_path, capsys):
        """The routing-cache and per-stage design-cache counters reach the
        --metrics-out report for evaluate and for sweeps at any --jobs
        (forked workers' counters merge into the parent's report)."""
        from repro.runtime.metrics import validate_metrics_file

        sweep = ["sweep", "sym6_145", *self.FAST, "--configs", "eff-full"]
        runs = {
            "evaluate": ["evaluate", "sym6_145", *self.FAST],
            "sweep": sweep,
            "sweep-jobs2": [*sweep, "--jobs", "2"],
        }
        caches = {}
        for name, argv in runs.items():
            self._drop_process_caches()
            path = tmp_path / f"{name}.json"
            assert main([*argv, "--metrics-out", str(path)]) == 0
            report = validate_metrics_file(path)
            assert report["command"] == argv[0]
            counters = report["counters"]
            for cache in ("routing/cache", "design/profile", "design/layout",
                          "design/bus-selection", "design/frequency"):
                assert counters.get(f"{cache}/misses", 0) > 0, (name, cache)
            assert counters.get("design/profile/hits", 0) > 0, name
            caches[name] = {key: value for key, value in counters.items()
                            if key.endswith(("/hits", "/misses"))}
        # Point tasks take their profile from the worker's design engine,
        # so each worker process misses once per circuit: only the total
        # number of profile lookups is independent of --jobs.
        profile_lookups = {
            name: counters.pop("design/profile/hits") + counters.pop("design/profile/misses")
            for name, counters in caches.items()
        }
        assert profile_lookups["sweep-jobs2"] == profile_lookups["sweep"]
        assert caches["sweep-jobs2"] == caches["sweep"]
        capsys.readouterr()
