"""Tests for the runtime metrics registry and the --metrics-out schema."""

import json

import pytest

from repro.runtime.metrics import (
    METRICS_FORMAT,
    METRICS_VERSION,
    MetricsRegistry,
    diff_snapshots,
    empty_snapshot,
    merge_snapshots,
    metrics_report,
    validate_metrics,
    validate_metrics_file,
    write_metrics,
)


class TestRegistry:
    def test_counters_start_at_zero_and_accumulate(self):
        registry = MetricsRegistry()
        assert registry.counter("routing/routes") == 0
        registry.increment("routing/routes")
        registry.increment("routing/routes", 4)
        assert registry.counter("routing/routes") == 5

    def test_timers_record_count_and_total(self):
        registry = MetricsRegistry()
        registry.observe("design/allocate", 0.5)
        registry.observe("design/allocate", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["timers"]["design/allocate"] == {"count": 2, "total_s": 2.0}

    def test_timer_context_manager_observes_once(self):
        registry = MetricsRegistry()
        with registry.timer("yield/estimate"):
            pass
        entry = registry.snapshot()["timers"]["yield/estimate"]
        assert entry["count"] == 1
        assert entry["total_s"] >= 0.0

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        snapshot = registry.snapshot()
        snapshot["counters"]["a"] = 999
        assert registry.counter("a") == 1

    def test_clear_empties_everything(self):
        registry = MetricsRegistry()
        registry.increment("a")
        registry.observe("b", 1.0)
        registry.clear()
        assert registry.snapshot() == empty_snapshot()


class TestSnapshotAlgebra:
    A = {"counters": {"x": 3, "y": 1}, "timers": {"t": {"count": 1, "total_s": 0.5}}}
    B = {"counters": {"x": 2}, "timers": {"t": {"count": 2, "total_s": 1.0},
                                          "u": {"count": 1, "total_s": 0.1}}}
    C = {"counters": {"z": 7}, "timers": {}}

    def test_merge_is_keywise_sum(self):
        merged = merge_snapshots(self.A, self.B)
        assert merged["counters"] == {"x": 5, "y": 1}
        assert merged["timers"]["t"] == {"count": 3, "total_s": 1.5}
        assert merged["timers"]["u"] == {"count": 1, "total_s": 0.1}

    def test_merge_is_associative_and_commutative(self):
        """Worker deltas merge to the same totals in any completion order
        — the property that makes --jobs N metrics deterministic."""
        import itertools

        reference = merge_snapshots(self.A, self.B, self.C)
        for order in itertools.permutations((self.A, self.B, self.C)):
            assert merge_snapshots(*order) == reference
        # Associativity: (A + B) + C == A + (B + C).
        assert merge_snapshots(merge_snapshots(self.A, self.B), self.C) == reference
        assert merge_snapshots(self.A, merge_snapshots(self.B, self.C)) == reference

    def test_diff_then_merge_round_trips(self):
        """baseline + diff(current, baseline) == current."""
        current = merge_snapshots(self.A, self.B)
        delta = diff_snapshots(current, self.A)
        assert merge_snapshots(self.A, delta) == current

    def test_diff_drops_unchanged_entries(self):
        delta = diff_snapshots(self.A, self.A)
        assert delta == empty_snapshot()


class TestReportSchema:
    def _report(self):
        snapshot = {
            "counters": {
                "routing/cache/hits": 6, "routing/cache/misses": 2,
                "routing/routes": 2, "routing/swaps": 10,
            },
            "timers": {"routing/route": {"count": 2, "total_s": 0.25}},
        }
        return metrics_report(snapshot, command="evaluate",
                              config_digest="abc123", jobs=2)

    def test_report_envelope(self):
        report = self._report()
        assert report["format"] == METRICS_FORMAT
        assert report["version"] == METRICS_VERSION
        assert report["command"] == "evaluate"
        assert report["jobs"] == 2
        validate_metrics(report)

    def test_derived_ratios_recomputed_from_counters(self):
        derived = self._report()["derived"]
        assert derived["routing/cache/hit_rate"] == pytest.approx(0.75)
        assert derived["routing/swaps_per_route"] == pytest.approx(5.0)

    def test_validate_rejects_missing_keys(self):
        report = self._report()
        del report["counters"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_metrics(report)

    def test_validate_rejects_unknown_keys(self):
        report = self._report()
        report["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            validate_metrics(report)

    def test_validate_rejects_wrong_format_and_version(self):
        report = self._report()
        report["format"] = "nope"
        with pytest.raises(ValueError, match="bad metrics format"):
            validate_metrics(report)
        report = self._report()
        report["version"] = 99
        with pytest.raises(ValueError, match="unsupported metrics version"):
            validate_metrics(report)

    def test_validate_rejects_bad_counter_values(self):
        for bad in (-1, True, 1.5, "3"):
            report = self._report()
            report["counters"]["routing/routes"] = bad
            with pytest.raises(ValueError, match="routing/routes"):
                validate_metrics(report)

    def test_validate_rejects_bad_timer_entries(self):
        report = self._report()
        report["timers"]["routing/route"] = {"count": 1}
        with pytest.raises(ValueError, match="routing/route"):
            validate_metrics(report)
        report = self._report()
        report["timers"]["routing/route"] = {"count": 1, "total_s": -0.1}
        with pytest.raises(ValueError, match="total_s"):
            validate_metrics(report)

    def test_write_and_validate_file_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        report = self._report()
        write_metrics(path, report)
        loaded = validate_metrics_file(path)
        assert loaded == report
        # Deterministic serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_write_refuses_invalid_report(self, tmp_path):
        report = self._report()
        report["counters"]["bad"] = -1
        with pytest.raises(ValueError):
            write_metrics(tmp_path / "metrics.json", report)
        assert not (tmp_path / "metrics.json").exists()
