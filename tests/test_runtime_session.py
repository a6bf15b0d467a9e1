"""Tests for the runtime session layer: config digests, the process
registry, and worker→parent metrics merging."""

import pickle

import pytest

from repro.design import reset_shared_caches
from repro.evaluation import ExperimentConfig, run_sweep
from repro.evaluation import parallel
from repro.runtime.config import RuntimeConfig, canonical_store_path
from repro.runtime.metrics import diff_snapshots, global_metrics
from repro.runtime.session import peek_session, session_for

FAST_KW = dict(yield_trials=300, frequency_local_trials=80, random_bus_seeds=(1,))
FAST_CONFIG = RuntimeConfig(**FAST_KW)
FAST_CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_LAYOUT_ONLY)


def point_fingerprint(result):
    return [
        (p.config.value, p.architecture_name, p.yield_rate, p.total_gates,
         p.num_swaps, p.normalized_reciprocal_gates)
        for p in result.points
    ]


def _cold_process():
    """Simulate a fresh process: no sessions, no shared design caches."""
    parallel.reset_worker_state()
    reset_shared_caches()


class TestRuntimeConfigRoundTrip:
    def test_json_round_trip_preserves_digest(self, tmp_path):
        config = RuntimeConfig(
            yield_trials=500, routing_cache_path="cache.sqlite",
            allocation_strategy="coordinate-descent",
        )
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        loaded = RuntimeConfig.from_json(path)
        assert loaded == config
        assert loaded.digest() == config.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime-config keys"):
            RuntimeConfig.from_mapping({"nope": 1})
        # Malformed values of known keys fail the same way, never TypeError.
        for malformed in (
            {"routing": {"bogus": 1}}, {"routing": 3}, {"random_bus_seeds": 5},
            {"random_bus_seeds": ["a"]}, {"yield_trials": 0},
            {"frequency_local_trials": 0}, {"yield_trials": "100"},
            {"yield_trials": True},
            {"allocation_strategy": 5}, {"checkpoint_path": 1},
        ):
            with pytest.raises(ValueError):
                RuntimeConfig.from_mapping(malformed)

    def test_config_is_picklable_with_stable_digest(self):
        config = RuntimeConfig(**FAST_KW)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.digest() == config.digest()

    def test_invalid_combinations_fail_at_resolution(self):
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)  # resume without a checkpoint
        with pytest.raises(ValueError):
            RuntimeConfig(allocation_strategy="nope")


class TestStorePathAliasing:
    """Regression: worker engine maps used to key on raw cache-path
    strings, so ``cache.sqlite`` and ``/abs/dir/cache.sqlite`` naming the
    same file got two engines (and two racing writers).  Sessions key on
    the config digest, which canonicalizes store paths first."""

    def test_relative_and_absolute_spellings_share_one_engine(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        relative = RuntimeConfig(routing_cache_path="cache.sqlite", **FAST_KW)
        absolute = RuntimeConfig(
            routing_cache_path=str(tmp_path / "cache.sqlite"), **FAST_KW
        )
        assert relative.digest() == absolute.digest()
        parallel.reset_worker_state()
        assert parallel._worker_engine(relative) is parallel._worker_engine(absolute)

    def test_symlink_aliases_share_one_engine(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        link = tmp_path / "link"
        link.symlink_to(real)
        via_real = RuntimeConfig(
            design_cache_path=str(real / "plans.sqlite"), **FAST_KW
        )
        via_link = RuntimeConfig(
            design_cache_path=str(link / "plans.sqlite"), **FAST_KW
        )
        assert via_real.digest() == via_link.digest()
        parallel.reset_worker_state()
        assert (parallel._worker_design_engine(via_real)
                is parallel._worker_design_engine(via_link))

    def test_different_paths_get_different_sessions(self, tmp_path):
        a = RuntimeConfig(routing_cache_path=str(tmp_path / "a.sqlite"), **FAST_KW)
        b = RuntimeConfig(routing_cache_path=str(tmp_path / "b.sqlite"), **FAST_KW)
        assert a.digest() != b.digest()
        parallel.reset_worker_state()
        assert parallel._worker_engine(a) is not parallel._worker_engine(b)

    def test_backend_prefix_is_refused(self, tmp_path, monkeypatch):
        """Store paths carry no backend prefix: canonicalization only
        resolves the path, and the CLI's guard refuses a prefix."""
        from repro.persistence import check_store_path

        monkeypatch.chdir(tmp_path)
        assert canonical_store_path("cache.sqlite") == str(tmp_path / "cache.sqlite")
        assert canonical_store_path(None) is None
        check_store_path("cache.sqlite")  # a fresh path: a new SQLite store
        for prefix in ("json:", "sharded:", "sqlite:"):
            with pytest.raises(ValueError, match="repro-design cache migrate"):
                check_store_path(prefix + "cache.sqlite")
        assert list(tmp_path.iterdir()) == []


class TestSessionRegistry:
    def test_session_for_is_get_or_create(self):
        parallel.reset_worker_state()
        config = RuntimeConfig(**FAST_KW)
        assert peek_session(config) is None
        session = session_for(config)
        assert session_for(config) is session
        assert peek_session(config) is session

    def test_sessions_are_lazy(self):
        parallel.reset_worker_state()
        session = session_for(RuntimeConfig(**FAST_KW))
        assert not session.has_routing_engine
        assert not session.has_design_engine


class TestSessionByteIdentity:
    """Acceptance: one shared warm Session serves every sweep with outputs
    byte-identical to a cold sweep, for any --jobs count."""

    def test_warm_session_sweep_matches_cold_sweep_for_any_jobs(self):
        _cold_process()
        reference = run_sweep(["sym6_145"], jobs=1, settings=FAST_CONFIG,
                              configs=FAST_CONFIGS)
        session = session_for(FAST_CONFIG)  # warm from the run above
        assert session.has_design_engine
        for jobs in (1, 2, 4):
            result = run_sweep(["sym6_145"], jobs=jobs, settings=FAST_CONFIG,
                               configs=FAST_CONFIGS)
            assert session_for(FAST_CONFIG) is session
            assert point_fingerprint(result["sym6_145"]) == point_fingerprint(
                reference["sym6_145"]
            ), f"warm session sweep diverged at jobs={jobs}"


class TestWorkerMetricsMerge:
    def test_forked_worker_deltas_merge_into_parent(self):
        _cold_process()
        baseline = global_metrics().snapshot()
        run_sweep(["sym6_145"], jobs=2, settings=FAST_CONFIG,
                  configs=FAST_CONFIGS)
        delta = diff_snapshots(global_metrics().snapshot(), baseline)
        counters = delta["counters"]
        # All the work happened in forked children; the parent registry
        # sees it only through the merged task deltas.
        assert counters.get("design/allocation_calls", 0) > 0
        assert counters.get("yield/estimates", 0) > 0
        assert counters.get("routing/routes", 0) > 0
        assert counters.get("design/architectures", 0) > 0

    def test_serial_sweep_counter_deltas_are_deterministic(self):
        deltas = []
        for _ in range(2):
            _cold_process()
            baseline = global_metrics().snapshot()
            run_sweep(["sym6_145"], jobs=1, settings=FAST_CONFIG,
                      configs=FAST_CONFIGS)
            current = global_metrics().snapshot()
            deltas.append(diff_snapshots(current, baseline)["counters"])
        assert deltas[0] == deltas[1]

    def test_in_process_sweep_does_not_double_count(self):
        """jobs=1 tasks run in the parent's own registry; their deltas
        must not be merged back on top (every estimate counted once)."""
        _cold_process()
        baseline = global_metrics().counter("yield/estimates")
        results = run_sweep(["sym6_145"], jobs=1, settings=FAST_CONFIG,
                            configs=FAST_CONFIGS)
        estimates = global_metrics().counter("yield/estimates") - baseline
        assert estimates == len(results["sym6_145"].points)
