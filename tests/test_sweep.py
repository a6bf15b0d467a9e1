"""Tests for the parallel design-space sweep executor."""

import pytest

from repro.evaluation import (
    ExperimentConfig,
    SweepExecutor,
    run_sweep,
    sweep_point_seed,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.session import session_for

FAST_SETTINGS = RuntimeConfig(
    yield_trials=300,
    frequency_local_trials=80,
    random_bus_seeds=(1,),
)
FAST_CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_LAYOUT_ONLY)


def point_fingerprint(result):
    return [
        (p.config.value, p.architecture_name, p.yield_rate, p.total_gates,
         p.num_swaps, p.normalized_reciprocal_gates)
        for p in result.points
    ]


class TestSweepDeterminism:
    def test_jobs_do_not_change_results(self):
        serial = run_sweep(
            ["sym6_145"], jobs=1, settings=FAST_SETTINGS, configs=FAST_CONFIGS
        )
        parallel = run_sweep(
            ["sym6_145"], jobs=3, settings=FAST_SETTINGS, configs=FAST_CONFIGS
        )
        assert point_fingerprint(serial["sym6_145"]) == point_fingerprint(
            parallel["sym6_145"]
        )
        assert len(serial["sym6_145"].points) > 0

    def test_point_seeds_depend_only_on_point_identity(self):
        seed = sweep_point_seed(7, "sym6_145", "eff-full", 2)
        assert seed == sweep_point_seed(7, "sym6_145", "eff-full", 2)
        assert seed != sweep_point_seed(7, "sym6_145", "eff-full", 3)
        assert seed != sweep_point_seed(8, "sym6_145", "eff-full", 2)
        assert seed != sweep_point_seed(7, "qft_16", "eff-full", 2)

    def test_repeated_runs_are_reproducible(self):
        executor = SweepExecutor(settings=FAST_SETTINGS, configs=FAST_CONFIGS, jobs=1)
        first = executor.run(["sym6_145"])
        second = executor.run(["sym6_145"])
        assert point_fingerprint(first["sym6_145"]) == point_fingerprint(
            second["sym6_145"]
        )


class TestSweepStructure:
    def test_enumerate_points_covers_configs_in_order(self):
        executor = SweepExecutor(settings=FAST_SETTINGS, configs=FAST_CONFIGS, jobs=1)
        points = executor.enumerate_points(["sym6_145"])
        assert points, "sweep enumerated no points"
        config_order = [p.config for p in points]
        # Points arrive grouped by configuration, in the requested order.
        seen = []
        for config in config_order:
            if not seen or seen[-1] is not config:
                seen.append(config)
        assert seen == list(FAST_CONFIGS)
        for point in points:
            assert point.benchmark == "sym6_145"
            assert point.architecture.num_qubits >= 7

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_aliased_and_repeated_names_collapse_to_one_result(self):
        results = run_sweep(
            ["SYM6_145", "sym6_145"], jobs=1, settings=FAST_SETTINGS, configs=FAST_CONFIGS
        )
        assert list(results) == ["sym6_145"]
        reference = run_sweep(
            ["sym6_145"], jobs=1, settings=FAST_SETTINGS, configs=FAST_CONFIGS
        )
        assert point_fingerprint(results["sym6_145"]) == point_fingerprint(
            reference["sym6_145"]
        )


class TestProfileOnce:
    def test_serial_sweep_profiles_each_circuit_once(self, monkeypatch):
        import sys
        from collections import Counter

        import repro.design.engine as design_engine
        from repro.benchmarks import get_benchmark
        from repro.evaluation import parallel

        calls = Counter()
        original = design_engine.profile_circuit

        def counting_profile(circuit):
            calls[circuit.name] += 1
            return original(circuit)

        received = []
        evaluate_point = parallel.evaluate_point

        def recording_evaluate_point(circuit, profile, *args, **kwargs):
            received.append((circuit.name, profile))
            return evaluate_point(circuit, profile, *args, **kwargs)

        # Every module that imported the profiler counts, not only the
        # design engine, so a second profiling path shows up as a call.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "profile_circuit", None) is original):
                monkeypatch.setattr(module, "profile_circuit", counting_profile)
        monkeypatch.setattr(parallel, "evaluate_point", recording_evaluate_point)
        parallel.reset_worker_state()
        benchmarks = ["sym6_145", "UCCSD_ansatz_8"]
        results = run_sweep(benchmarks, jobs=1, settings=FAST_SETTINGS, configs=FAST_CONFIGS)

        assert dict(calls) == {name: 1 for name in benchmarks}
        assert len(received) == sum(len(results[name].points) for name in benchmarks)
        engine = session_for(FAST_SETTINGS).design_engine
        for name, profile in received:
            assert profile is engine.profile(get_benchmark(name))
        parallel.reset_worker_state()


class TestRoutingCachePersistence:
    def test_in_process_sweep_persists_and_reuses_routing_results(self, tmp_path):
        path = tmp_path / "routing_cache.sqlite"
        settings = RuntimeConfig(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            routing_cache_path=str(path),
        )
        first = run_sweep(["sym6_145"], jobs=1, settings=settings,
                          configs=FAST_CONFIGS)
        # The per-task in-worker merges already persisted everything; the
        # session has nothing left to merge.
        assert path.exists()
        assert session_for(settings).persist_routing() is None

        # A later invocation warm-loads the persisted results and produces
        # byte-identical output.
        second = run_sweep(["sym6_145"], jobs=1, settings=settings,
                           configs=FAST_CONFIGS)
        assert point_fingerprint(first["sym6_145"]) == point_fingerprint(
            second["sym6_145"]
        )

    def test_multi_worker_sweep_leaves_complete_routing_cache(self, tmp_path):
        """Evaluation tasks merge their routing results from inside the
        workers, so a --jobs 2 sweep leaves a cache file that serves a
        subsequent serial run without a single routing miss — the old
        '--jobs 1 refresh pass' is gone."""
        from repro.evaluation import parallel

        path = tmp_path / "routing_cache.sqlite"
        settings = RuntimeConfig(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            routing_cache_path=str(path),
        )
        sharded = run_sweep(["sym6_145"], jobs=2, settings=settings,
                            configs=FAST_CONFIGS)
        assert path.exists()

        # A fresh process's serial run (simulated by dropping the
        # process-local sessions) warm-loads the file and routes nothing.
        parallel.reset_worker_state()
        serial = run_sweep(["sym6_145"], jobs=1, settings=settings,
                           configs=FAST_CONFIGS)
        engine = parallel._worker_engine(settings)
        assert engine.cache.misses == 0
        assert engine.cache.hits > 0
        assert point_fingerprint(sharded["sym6_145"]) == point_fingerprint(
            serial["sym6_145"]
        )

    def test_cache_path_does_not_change_results(self, tmp_path):
        cached_settings = RuntimeConfig(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            routing_cache_path=str(tmp_path / "cache.sqlite"),
        )
        plain = run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                          configs=FAST_CONFIGS)
        cached = run_sweep(["sym6_145"], jobs=1, settings=cached_settings,
                           configs=FAST_CONFIGS)
        assert point_fingerprint(plain["sym6_145"]) == point_fingerprint(
            cached["sym6_145"]
        )


class TestAllocationStrategyAblation:
    def test_strategy_reaches_the_sweep(self):
        """coordinate-descent actually changes the designed frequency plans
        (it refines beyond the paper-exact search), so identical output
        would mean the setting never reached the allocator."""
        base = run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                         configs=(ExperimentConfig.EFF_FULL,))
        ablation_settings = RuntimeConfig(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            allocation_strategy="coordinate-descent",
        )
        ablation = run_sweep(["sym6_145"], jobs=1, settings=ablation_settings,
                             configs=(ExperimentConfig.EFF_FULL,))
        assert point_fingerprint(base["sym6_145"]) != point_fingerprint(
            ablation["sym6_145"]
        )

    def test_ablation_sweep_is_jobs_invariant(self):
        settings = RuntimeConfig(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            allocation_strategy="coordinate-descent",
        )
        serial = run_sweep(["sym6_145"], jobs=1, settings=settings,
                           configs=FAST_CONFIGS)
        parallel = run_sweep(["sym6_145"], jobs=4, settings=settings,
                             configs=FAST_CONFIGS)
        assert point_fingerprint(serial["sym6_145"]) == point_fingerprint(
            parallel["sym6_145"]
        )

    def test_unknown_strategy_rejected_before_workers_fork(self):
        with pytest.raises(ValueError, match="unknown allocation strategy"):
            RuntimeConfig(allocation_strategy="nope")


class TestScreeningIdentity:
    """Backend byte-identity: the interval screen (``native``) is provably
    winner-preserving, so whole sweeps agree bit for bit with the direct
    ranking (``numpy``).

    Every process-level cache whose keys deliberately exclude the
    backend (the worker design engines' frequency stage, the allocator's
    ranking memo and noise tensors) is dropped between the two runs —
    otherwise the second sweep would be served from the first sweep's
    results and the comparison would test nothing.
    """

    SETTINGS = RuntimeConfig(
        yield_trials=300,
        frequency_local_trials=80,
        random_bus_seeds=(1,),
    )

    @staticmethod
    def _drop_process_caches():
        from repro.design import reset_shared_caches
        from repro.evaluation import parallel

        parallel.reset_worker_state()
        reset_shared_caches()

    def _sweep_under(self, merge_backend, name, jobs):
        merge_backend(name)
        self._drop_process_caches()
        return run_sweep(["sym6_145"], jobs=jobs, settings=self.SETTINGS,
                         configs=FAST_CONFIGS)

    def test_screening_off_is_byte_identical_serial(self, merge_backend, allocation_calls):
        native = self._sweep_under(merge_backend, "native", 1)
        allocation_calls.reset()
        numpy = self._sweep_under(merge_backend, "numpy", 1)
        # The direct side really recomputed its plans.
        assert allocation_calls() > 0
        assert point_fingerprint(native["sym6_145"]) == point_fingerprint(
            numpy["sym6_145"]
        )

    def test_screening_off_is_byte_identical_sharded(self, merge_backend):
        native = self._sweep_under(merge_backend, "native", 3)
        numpy = self._sweep_under(merge_backend, "numpy", 3)
        assert point_fingerprint(native["sym6_145"]) == point_fingerprint(
            numpy["sym6_145"]
        )


class TestDesignCachePersistence:
    def _settings(self, path, **overrides):
        values = dict(
            yield_trials=300,
            frequency_local_trials=80,
            random_bus_seeds=(1,),
            design_cache_path=str(path),
        )
        values.update(overrides)
        return RuntimeConfig(**values)

    def test_in_process_sweep_persists_design_cache(self, tmp_path, allocation_calls):
        from repro.evaluation import parallel

        path = tmp_path / "design_cache.sqlite"
        settings = self._settings(path)
        first = run_sweep(["sym6_145"], jobs=1, settings=settings,
                          configs=FAST_CONFIGS)
        assert path.exists()

        # A warm second invocation — simulated as a fresh process by
        # dropping the process-local engines — re-derives identical points
        # with zero Algorithm 3 Monte Carlo searches.
        parallel.reset_worker_state()
        allocation_calls.reset()
        second = run_sweep(["sym6_145"], jobs=1, settings=settings,
                           configs=FAST_CONFIGS)
        assert allocation_calls() == 0
        assert point_fingerprint(first["sym6_145"]) == point_fingerprint(
            second["sym6_145"]
        )

    def test_multi_process_sweep_persists_design_cache(self, tmp_path):
        """Generation tasks merge their plans from inside the workers, so
        even --jobs N leaves a complete cache file behind."""
        from repro.design import DesignCache

        path = tmp_path / "design_cache.sqlite"
        settings = self._settings(path)
        parallel = run_sweep(["sym6_145"], jobs=3, settings=settings,
                             configs=FAST_CONFIGS)
        assert path.exists()
        merged = DesignCache()
        assert merged.load(path) > 0

        # The file warms a subsequent serial run to identical output.
        serial = run_sweep(["sym6_145"], jobs=1, settings=settings,
                           configs=FAST_CONFIGS)
        assert point_fingerprint(parallel["sym6_145"]) == point_fingerprint(
            serial["sym6_145"]
        )

    def test_design_cache_does_not_change_results(self, tmp_path):
        cached = run_sweep(
            ["sym6_145"], jobs=1, settings=self._settings(tmp_path / "dc.sqlite"),
            configs=FAST_CONFIGS,
        )
        plain = run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                          configs=FAST_CONFIGS)
        assert point_fingerprint(cached["sym6_145"]) == point_fingerprint(
            plain["sym6_145"]
        )

    def test_warm_cache_with_ablation_strategy_is_jobs_invariant(self, tmp_path):
        """The acceptance-criteria grid: a warm design cache plus the
        coordinate-descent ablation stays byte-identical for jobs 1 vs 4."""
        path = tmp_path / "design_cache.sqlite"
        settings = self._settings(path, allocation_strategy="coordinate-descent")
        run_sweep(["sym6_145"], jobs=1, settings=settings, configs=FAST_CONFIGS)
        assert path.exists()
        warm_serial = run_sweep(["sym6_145"], jobs=1, settings=settings,
                                configs=FAST_CONFIGS)
        warm_parallel = run_sweep(["sym6_145"], jobs=4, settings=settings,
                                  configs=FAST_CONFIGS)
        assert point_fingerprint(warm_serial["sym6_145"]) == point_fingerprint(
            warm_parallel["sym6_145"]
        )
