"""Tests for the persisted design-stage cache (``DesignCache``)."""

import threading

import pytest

from repro import persistence
from repro.benchmarks import get_benchmark
from repro.design import DesignCache, DesignEngine
from repro.design.engine import DesignOptions

#: Cheap allocator configuration shared by every test here.
FAST = DesignOptions(local_trials=80)


@pytest.fixture
def circuit():
    return get_benchmark("sym6_145")


def plans(series):
    return [
        (arch.name, tuple(sorted(arch.frequencies.items()))) for arch in series
    ]


class TestSaveLoadRoundTrip:
    def test_warm_engine_reproduces_series_bit_identically(self, tmp_path, circuit):
        path = tmp_path / "design_cache.sqlite"
        producer = DesignEngine()
        series = producer.design_series(circuit, options=FAST)
        assert producer.frequency_cache.save(path) == len(series)

        consumer = DesignEngine()
        assert consumer.frequency_cache.load(path) == len(series)
        warm = consumer.design_series(circuit, options=FAST)
        assert plans(warm) == plans(series)

    def test_warm_engine_runs_zero_frequency_searches(self, tmp_path, circuit,
                                                      allocation_calls):
        """The headline guarantee: a session served from a persisted cache
        re-derives its architectures without a single Algorithm 3 Monte
        Carlo search."""
        path = tmp_path / "design_cache.sqlite"
        producer = DesignEngine()
        producer.design_series(circuit, options=FAST)
        producer.frequency_cache.save(path)

        consumer = DesignEngine()
        consumer.frequency_cache.load(path)
        allocation_calls.reset()
        consumer.design_series(circuit, options=FAST)
        assert allocation_calls() == 0
        assert consumer.frequency_cache.stats()["misses"] == 0

    def test_loaded_plans_are_caller_owned(self, tmp_path, circuit):
        path = tmp_path / "design_cache.sqlite"
        producer = DesignEngine()
        producer.design_series(circuit, options=FAST)
        producer.frequency_cache.save(path)

        consumer = DesignEngine()
        consumer.frequency_cache.load(path)
        first = consumer.design(circuit, 1, FAST)
        first.frequencies[0] = -1.0
        second = consumer.design(circuit, 1, FAST)
        assert second.frequencies[0] != -1.0

    def test_in_memory_entries_win_over_file_entries(self, tmp_path, circuit):
        path = tmp_path / "design_cache.sqlite"
        engine = DesignEngine()
        series = engine.design_series(circuit, options=FAST)
        engine.frequency_cache.save(path)
        assert engine.frequency_cache.load(path) == 0  # nothing new merged
        assert plans(engine.design_series(circuit, options=FAST)) == plans(series)


class TestKeying:
    def test_allocator_config_participates_in_keys(self, tmp_path, circuit,
                                                   allocation_calls):
        """Plans persisted under one allocator configuration must never be
        served to another."""
        path = tmp_path / "design_cache.sqlite"
        producer = DesignEngine()
        producer.design_series(circuit, options=FAST)
        producer.frequency_cache.save(path)

        consumer = DesignEngine()
        consumer.frequency_cache.load(path)
        allocation_calls.reset()
        other = DesignOptions(local_trials=80, allocation_strategy="coordinate-descent")
        consumer.design_series(circuit, options=other)
        assert allocation_calls() > 0  # cache could not serve these

    def test_strategy_specific_plans_round_trip(self, tmp_path, circuit,
                                                allocation_calls):
        path = tmp_path / "design_cache.sqlite"
        options = DesignOptions(local_trials=80, allocation_strategy="coordinate-descent")
        producer = DesignEngine()
        series = producer.design_series(circuit, options=options)
        producer.frequency_cache.save(path)

        consumer = DesignEngine()
        consumer.frequency_cache.load(path)
        allocation_calls.reset()
        assert plans(consumer.design_series(circuit, options=options)) == plans(series)
        assert allocation_calls() == 0


class TestFileValidation:
    def test_missing_file_handling(self, tmp_path):
        cache = DesignCache()
        missing = tmp_path / "nope.sqlite"
        assert cache.load(missing, missing_ok=True) == 0
        with pytest.raises(FileNotFoundError):
            cache.load(missing)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.sqlite"
        persistence.write_cache_file(path, "something-else", 1, [],
                                     key_of=DesignCache._record_key)
        with pytest.raises(ValueError, match="not a design cache"):
            DesignCache().load(path)

    def test_unknown_version_rejected(self, tmp_path):
        """A future version reads as cold, never half-parsed."""
        path = tmp_path / "future.sqlite"
        persistence.write_cache_file(
            path, DesignCache.FORMAT, 2, [{"key": ["k"], "new-schema": True}],
            key_of=DesignCache._record_key,
        )
        with pytest.warns(persistence.CacheStoreFault, match="unsupported version '2'"):
            assert DesignCache().load(path) == 0

    def test_routing_cache_file_rejected(self, tmp_path):
        path = tmp_path / "routing.sqlite"
        persistence.write_cache_file(path, "repro-routing-cache", 1, [],
                                     key_of=DesignCache._record_key)
        with pytest.raises(ValueError, match="not a design cache"):
            DesignCache().load(path)


class TestMergeBeyondBound:
    def test_merge_save_preserves_entries_beyond_lru_bound(self, tmp_path, circuit):
        """A producer whose in-memory cache is smaller than the file must
        extend the file, never truncate it to its own bound — long sweeps
        outgrowing max_entries keep complete cache files."""
        path = tmp_path / "design_cache.sqlite"
        producer = DesignEngine()
        producer.design_series(circuit, options=FAST)
        baseline = producer.frequency_cache.merge_save(path)
        assert baseline > 1

        small = DesignCache(max_entries=1)
        bounded_engine = DesignEngine(frequency_cache=small)
        bounded_engine.design(get_benchmark("qft_16"), 0, FAST)
        assert len(small) == 1
        assert small.merge_save(path) == baseline + 1

        final = DesignCache()
        assert final.load(path) == baseline + 1


class TestConcurrentMerge:
    def test_two_thread_merge_saves_lose_no_plans(self, tmp_path, circuit):
        """Concurrent workers sharing one --design-cache path must end up
        with the union of their frequency plans."""
        path = tmp_path / "design_cache.sqlite"
        qft = get_benchmark("qft_16")
        engines = {}
        for name, circ in (("sym", circuit), ("qft", qft)):
            engine = DesignEngine()
            engine.design_series(circ, options=FAST)
            engines[name] = engine
        expected = sum(len(e.frequency_cache) for e in engines.values())

        barrier = threading.Barrier(len(engines))
        errors = []

        def merge(engine):
            try:
                barrier.wait(timeout=10)
                engine.frequency_cache.merge_save(path)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=merge, args=(engine,))
            for engine in engines.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = DesignCache()
        assert final.load(path) == expected
