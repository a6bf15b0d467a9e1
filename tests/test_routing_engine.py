"""Tests for the routing engine: per-architecture reuse and memoization."""

from dataclasses import asdict, replace

import pytest

from repro import persistence
from repro.circuit import QuantumCircuit, cx, h, measure
from repro.hardware import Architecture, Lattice, ibm_16q_2x8
from repro.mapping import (
    RoutingCache,
    RoutingEngine,
    SabreParameters,
    route_circuit,
)
from repro.mapping.engine import architecture_cache_key, circuit_cache_key


def small_circuit(name="engine_test"):
    circuit = QuantumCircuit(4, name=name)
    circuit.extend([cx(0, 3), cx(1, 2), h(0), cx(0, 1), measure(3)])
    return circuit


class TestRoutingCache:
    def test_get_miss_then_hit(self):
        cache = RoutingCache()
        assert cache.lookup(("k",)) is None
        cache.put(("k",), "value")
        assert cache.lookup(("k",)) == "value"
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_lru_eviction_bound(self):
        cache = RoutingCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.lookup(("a",))  # refresh a; b becomes least recent
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == 1
        assert cache.lookup(("c",)) == 3

    def test_unbounded_cache(self):
        cache = RoutingCache(max_entries=None)
        for index in range(600):
            cache.put((index,), index)
        assert len(cache) == 600

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            RoutingCache(max_entries=0)

    def test_clear(self):
        cache = RoutingCache()
        cache.put(("k",), 1)
        cache.clear()
        assert len(cache) == 0


class TestCacheKeys:
    def test_circuit_key_distinguishes_names_and_gates(self):
        base = small_circuit("one")
        renamed = small_circuit("two")
        assert circuit_cache_key(base) != circuit_cache_key(renamed)
        extended = small_circuit("one").append(h(1))
        assert circuit_cache_key(base) != circuit_cache_key(extended)
        assert circuit_cache_key(base) == circuit_cache_key(small_circuit("one"))

    def test_circuit_key_tracks_mutation(self):
        circuit = small_circuit()
        before = circuit_cache_key(circuit)
        circuit.append(h(2))
        assert circuit_cache_key(circuit) != before

    def test_architecture_key_ignores_frequencies(self):
        arch = ibm_16q_2x8()
        with_freqs = arch.with_frequencies({q: 5.1 for q in arch.qubits})
        assert architecture_cache_key(arch) == architecture_cache_key(with_freqs)

    def test_architecture_key_ignores_name(self):
        arch = ibm_16q_2x8()
        renamed = arch.with_frequencies(arch.frequencies, name="renamed")
        assert renamed.name != arch.name
        assert architecture_cache_key(arch) == architecture_cache_key(renamed)
        assert arch.name not in architecture_cache_key(arch)

    def test_architecture_key_distinguishes_coupling(self):
        sparse = ibm_16q_2x8(use_four_qubit_buses=False)
        dense = ibm_16q_2x8(use_four_qubit_buses=True)
        assert architecture_cache_key(sparse) != architecture_cache_key(dense)


class TestRoutingEngine:
    def test_memoized_result_identical(self):
        engine = RoutingEngine()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        first = engine.route(circuit, arch)
        second = engine.route(circuit, arch)
        assert engine.cache.hits == 1
        assert first.num_swaps == second.num_swaps
        assert first.initial_mapping == second.initial_mapping
        assert first.final_mapping == second.final_mapping
        assert list(first.routed_circuit.gates) == list(second.routed_circuit.gates)

    def test_cached_copies_are_detached(self):
        engine = RoutingEngine()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        first = engine.route(circuit, arch)
        first.initial_mapping[0] = 999
        first.routed_circuit.append(h(0))
        second = engine.route(circuit, arch)
        assert second.initial_mapping.get(0) != 999
        assert len(second.routed_circuit) == len(first.routed_circuit) - 1

    def test_keep_routed_circuit_honoured_on_hits(self):
        engine = RoutingEngine()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        # Counts-only routings cache counts-only entries (sweeps stay light);
        # a later full request recomputes once and upgrades the entry.
        dropped = engine.route(circuit, arch, keep_routed_circuit=False)
        kept = engine.route(circuit, arch, keep_routed_circuit=True)
        assert dropped.routed_circuit is None
        assert kept.routed_circuit is not None
        assert engine.cache.stats()["entries"] == 1
        # The upgrade recomputed in full, so it counts as a miss, not a hit.
        assert engine.cache.stats() == {"entries": 1, "hits": 0, "misses": 2}
        # Both flavours now serve from the upgraded entry.
        misses_before = engine.cache.misses
        again_full = engine.route(circuit, arch, keep_routed_circuit=True)
        again_light = engine.route(circuit, arch, keep_routed_circuit=False)
        assert engine.cache.misses == misses_before
        assert again_full.routed_circuit is not None
        assert again_light.routed_circuit is None
        assert again_full.num_swaps == dropped.num_swaps == kept.num_swaps

    def test_router_state_shared_per_architecture(self):
        engine = RoutingEngine()
        arch = ibm_16q_2x8()
        assert engine.router_for(arch) is engine.router_for(ibm_16q_2x8())

    def test_parameters_partition_the_cache(self):
        cache = RoutingCache()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        default = RoutingEngine(cache=cache)
        tuned = RoutingEngine(SabreParameters(extended_set_size=5), cache=cache)
        default.route(circuit, arch)
        tuned.route(circuit, arch)
        assert cache.stats()["entries"] == 2

    def test_matches_route_circuit(self, line_circuit):
        arch = ibm_16q_2x8()
        via_engine = RoutingEngine().route(line_circuit, arch)
        direct = route_circuit(line_circuit, arch)
        assert via_engine.num_swaps == direct.num_swaps
        assert via_engine.total_gates == direct.total_gates
        assert list(via_engine.routed_circuit.gates) == list(direct.routed_circuit.gates)

    def test_route_circuit_accepts_engine(self, line_circuit):
        engine = RoutingEngine()
        arch = ibm_16q_2x8()
        first = route_circuit(line_circuit, arch, engine=engine)
        second = route_circuit(line_circuit, arch, engine=engine)
        assert engine.cache.hits == 1
        assert first.total_gates == second.total_gates

    def test_route_circuit_rejects_conflicting_parameters(self, line_circuit):
        engine = RoutingEngine(SabreParameters(extended_set_size=10))
        with pytest.raises(ValueError):
            route_circuit(
                line_circuit,
                ibm_16q_2x8(),
                parameters=SabreParameters(extended_set_size=20),
                engine=engine,
            )

    def test_route_circuit_matching_parameters_allowed(self, line_circuit):
        params = SabreParameters(extended_set_size=10)
        engine = RoutingEngine(params)
        result = route_circuit(line_circuit, ibm_16q_2x8(), parameters=params, engine=engine)
        assert result.num_swaps >= 0

    def test_colliding_cache_entry_not_served(self):
        """An entry whose stored gate tuple differs from the requesting
        circuit's (a content-hash collision) must be recomputed, not served."""
        from repro.mapping.engine import _CacheEntry

        engine = RoutingEngine()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        real = engine.route(circuit, arch)
        key = engine.cache_key(circuit, arch)
        assert key in engine.cache._entries
        engine.cache.put(key, _CacheEntry(gates=(h(0),), result="poisoned"))
        misses = engine.cache.misses
        again = engine.route(circuit, arch)
        assert engine.cache.misses == misses + 1
        assert again.num_swaps == real.num_swaps
        assert again.initial_mapping == real.initial_mapping
        assert list(again.routed_circuit.gates) == list(real.routed_circuit.gates)
        assert engine.cache._entries[key].result != "poisoned"

    def test_mismatched_profile_rejected(self, line_circuit):
        """The cache keys by circuit only, so a foreign profile must be
        rejected rather than silently producing/serving a wrong routing."""
        from repro.benchmarks import get_benchmark
        from repro.profiling import profile_circuit

        foreign = profile_circuit(get_benchmark("sym6_145"))
        with pytest.raises(ValueError, match="does not describe circuit"):
            RoutingEngine().route(line_circuit, ibm_16q_2x8(), profile=foreign)

    def test_disconnected_architecture_rejected(self):
        disconnected = Architecture(
            name="disc",
            lattice=Lattice.from_coordinates({0: (0, 0), 1: (5, 5)}),
            buses=[],
        )
        circuit = QuantumCircuit(2).extend([cx(0, 1)])
        with pytest.raises(ValueError):
            RoutingEngine().route(circuit, disconnected)


class TestSharingByTopology:
    """Chips that differ only in name or frequencies share one routing."""

    @staticmethod
    def twin(architecture, name):
        return architecture.with_frequencies(
            {q: 5.0 + 0.01 * q for q in architecture.qubits}, name=name
        )

    @pytest.mark.parametrize("keep", [False, True])
    def test_twin_chip_is_a_hit_under_its_own_name(self, keep):
        engine = RoutingEngine()
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        twin = self.twin(arch, "twin")
        first = engine.route(circuit, arch, keep_routed_circuit=keep)
        second = engine.route(circuit, twin, keep_routed_circuit=keep)
        assert engine.cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert (first.architecture_name, second.architecture_name) == (arch.name, "twin")
        assert replace(second, architecture_name=arch.name, routed_circuit=None) == replace(
            first, routed_circuit=None
        )
        if keep:
            assert first.routed_circuit.name == f"{circuit.name}@{arch.name}"
            assert second.routed_circuit.name == f"{circuit.name}@twin"
            assert list(first.routed_circuit.gates) == list(second.routed_circuit.gates)
        # The first requester's name is not served back to it afterwards.
        again = engine.route(circuit, arch, keep_routed_circuit=keep)
        assert again.architecture_name == arch.name

    def test_different_coupling_is_not_shared(self):
        engine = RoutingEngine()
        circuit = small_circuit()
        engine.route(circuit, ibm_16q_2x8(use_four_qubit_buses=False))
        engine.route(circuit, ibm_16q_2x8(use_four_qubit_buses=True))
        assert engine.cache.stats() == {"entries": 2, "hits": 0, "misses": 2}

    def test_different_pseudo_mapping_is_not_shared(self):
        from repro.benchmarks import get_benchmark
        from repro.design import DesignFlow, DesignOptions

        circuit = get_benchmark("sym6_145")
        arch = DesignFlow(circuit, DesignOptions(local_trials=20)).design(0)
        placed = dict(arch.logical_to_physical)
        moved = dict(placed)
        first, second = sorted(moved)[:2]
        moved[first], moved[second] = placed[second], placed[first]
        other = Architecture(
            name=arch.name, lattice=arch.lattice, buses=arch.buses,
            frequencies=arch.frequencies, logical_to_physical=moved,
        )
        assert architecture_cache_key(other) != architecture_cache_key(arch)
        engine = RoutingEngine()
        engine.route(circuit, arch, keep_routed_circuit=False)
        engine.route(circuit, other, keep_routed_circuit=False)
        assert engine.cache.stats() == {"entries": 2, "hits": 0, "misses": 2}
        assert engine.router_for(arch) is not engine.router_for(other)

    def test_sweep_routes_each_topology_once(self, tmp_path, capsys):
        """eff-5-freq's chips are eff-full's with another frequency plan:
        the sweep computes three routes and serves three hits."""
        import json

        from repro.cli import main
        from repro.design import reset_shared_caches
        from repro.evaluation import parallel

        parallel.reset_worker_state()
        reset_shared_caches()
        path = tmp_path / "m.json"
        assert main(["sweep", "sym6_145", "--trials", "200", "--local-trials", "60",
                     "--configs", "eff-full", "eff-5-freq", "--jobs", "1",
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        counters = json.loads(path.read_text())["counters"]
        assert counters["routing/routes"] == 3
        assert counters["routing/cache/hits"] == 3


class TestCachePersistence:
    """RoutingCache.save/load: counts-only store reuse across processes."""

    def test_round_trip_serves_counts_from_disk(self, tmp_path):
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        producer = RoutingEngine()
        original = producer.route(circuit, arch, keep_routed_circuit=False)
        path = tmp_path / "routing_cache.sqlite"
        assert producer.cache.save(path) == 1

        consumer = RoutingEngine()
        assert consumer.cache.load(path) == 1
        replayed = consumer.route(circuit, arch, keep_routed_circuit=False)
        assert replayed.num_swaps == original.num_swaps
        assert replayed.initial_mapping == original.initial_mapping
        assert replayed.final_mapping == original.final_mapping
        assert consumer.cache.stats()["hits"] == 1
        assert consumer.cache.stats()["misses"] == 0

    def test_full_circuit_request_recomputes_counts_only_entry(self, tmp_path):
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        producer = RoutingEngine()
        producer.route(circuit, arch, keep_routed_circuit=False)
        path = tmp_path / "routing_cache.sqlite"
        producer.cache.save(path)

        consumer = RoutingEngine()
        consumer.cache.load(path)
        full = consumer.route(circuit, arch, keep_routed_circuit=True)
        assert full.routed_circuit is not None

    def test_load_merges_without_displacing_existing_entries(self, tmp_path):
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        producer = RoutingEngine()
        producer.route(circuit, arch, keep_routed_circuit=False)
        path = tmp_path / "routing_cache.sqlite"
        producer.cache.save(path)

        consumer = RoutingEngine()
        consumer.route(circuit, arch, keep_routed_circuit=True)
        assert consumer.cache.load(path) == 0  # in-memory entry wins
        kept = consumer.route(circuit, arch, keep_routed_circuit=True)
        assert kept.routed_circuit is not None

    def test_missing_file_handling(self, tmp_path):
        cache = RoutingCache()
        missing = tmp_path / "nope.sqlite"
        assert cache.load(missing, missing_ok=True) == 0
        with pytest.raises(FileNotFoundError):
            cache.load(missing)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.sqlite"
        persistence.write_cache_file(path, "something-else", 1, [],
                                     key_of=RoutingCache._record_key)
        with pytest.raises(ValueError, match="not a routing cache"):
            RoutingCache().load(path)

    def test_parameters_round_trip_in_keys(self, tmp_path):
        """Entries persisted under tuned parameters only serve matching engines."""
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        tuned = SabreParameters(passes=3)
        producer = RoutingEngine(tuned)
        producer.route(circuit, arch, keep_routed_circuit=False)
        path = tmp_path / "routing_cache.sqlite"
        producer.cache.save(path)

        default_engine = RoutingEngine()
        default_engine.cache.load(path)
        default_engine.route(circuit, arch, keep_routed_circuit=False)
        assert default_engine.cache.stats()["hits"] == 0

        tuned_engine = RoutingEngine(tuned)
        tuned_engine.cache.load(path)
        tuned_engine.route(circuit, arch, keep_routed_circuit=False)
        assert tuned_engine.cache.stats()["hits"] == 1

    def test_pre_topology_record_is_served_under_requesters_name(self, tmp_path):
        """Records written while the architecture key began with the chip's
        name still hit, and the result names the requesting chip."""
        circuit = small_circuit()
        arch = ibm_16q_2x8()
        fresh = RoutingEngine().route(circuit, arch, keep_routed_circuit=False)
        legacy_key = [
            "ibm_old_name",
            list(arch.qubits),
            [list(edge) for edge in arch.coupling_edges()],
            [list(item) for item in sorted(arch.logical_to_physical.items())],
        ]
        record = {
            "circuit_key": list(circuit_cache_key(circuit)),
            "architecture_key": legacy_key,
            "parameters": asdict(SabreParameters()),
            "profile_key": None,
            "result": {
                "circuit_name": circuit.name,
                "architecture_name": "ibm_old_name",
                "original_gates": fresh.original_gates,
                "original_two_qubit_gates": fresh.original_two_qubit_gates,
                "num_swaps": fresh.num_swaps,
                "initial_mapping": {str(k): v for k, v in fresh.initial_mapping.items()},
                "final_mapping": {str(k): v for k, v in fresh.final_mapping.items()},
            },
        }
        path = tmp_path / "routing_cache.sqlite"
        assert RoutingCache.VERSION == 1
        persistence.write_cache_file(path, RoutingCache.FORMAT, 1, [record],
                                     key_of=RoutingCache._record_key)
        assert RoutingCache._record_key(record) == RoutingCache._record_key(
            {**record, "architecture_key": legacy_key[1:]}
        )
        engine = RoutingEngine()
        assert engine.cache.load(path) == 1
        served = engine.route(circuit, arch, keep_routed_circuit=False)
        assert engine.cache.stats() == {"entries": 1, "hits": 1, "misses": 0}
        assert served == fresh
        assert served.architecture_name == arch.name

    def test_content_digest_is_process_stable(self):
        """Persisted keys embed the circuit digest, so it must not depend on
        Python's per-process hash salt; the pinned value catches any
        regression back to the salted built-in hash()."""
        assert small_circuit().content_hash() == 1918906499985999522

    def test_unknown_version_rejected(self, tmp_path):
        """A future version-2 cache store reads as cold with a warning
        instead of being half-parsed by version-1 code."""
        circuit = small_circuit()
        producer = RoutingEngine()
        producer.route(circuit, ibm_16q_2x8(), keep_routed_circuit=False)
        path = tmp_path / "future.sqlite"
        persistence.write_cache_file(
            path, RoutingCache.FORMAT, 2, producer.cache._serialize_entries(),
            key_of=RoutingCache._record_key,
        )
        with pytest.warns(persistence.CacheStoreFault, match="unsupported version '2'"):
            assert RoutingCache().load(path) == 0

    def test_save_is_atomic_on_disk(self, tmp_path):
        """save is one SQLite transaction: after it returns, the directory
        holds exactly the committed database (no journal left behind),
        stamped with the cache's envelope."""
        import sqlite3

        circuit = small_circuit()
        producer = RoutingEngine()
        producer.route(circuit, ibm_16q_2x8(), keep_routed_circuit=False)
        path = tmp_path / "routing_cache.sqlite"
        producer.cache.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["routing_cache.sqlite"]
        with sqlite3.connect(path) as connection:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
            (rows,) = connection.execute("SELECT COUNT(*) FROM entries").fetchone()
        assert meta == {"format": RoutingCache.FORMAT,
                        "version": str(RoutingCache.VERSION)}
        assert rows == 1

    def test_concurrent_merge_saves_lose_no_entries(self, tmp_path):
        """The satellite regression: two workers merging into one shared
        cache path from different threads must end with the union of their
        routings, not whichever write landed last."""
        import threading

        arch = ibm_16q_2x8()
        engines = []
        for index in range(2):
            engine = RoutingEngine()
            engine.route(
                small_circuit(name=f"worker_{index}"), arch, keep_routed_circuit=False
            )
            engines.append(engine)
        path = tmp_path / "routing_cache.sqlite"
        barrier = threading.Barrier(len(engines))
        errors = []

        def merge(engine):
            try:
                barrier.wait(timeout=10)
                engine.cache.merge_save(path)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=merge, args=(engine,)) for engine in engines
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = RoutingCache()
        assert final.load(path) == 2  # one entry per worker, none dropped
