"""Cross-layer structured metrics: counters and timers for every engine.

One process-local :class:`MetricsRegistry` (reached via
:func:`global_metrics`) collects counters (cache hits per stage,
backend fallbacks, swap counts, Algorithm 3 Monte Carlo calls) and
wall-time accumulators from the yield, routing, and design layers.

Three operations make the registry safe to thread through parallel
sweeps without touching the byte-identity contract:

* :meth:`MetricsRegistry.snapshot` — a plain-dict copy of the current
  state, picklable across process boundaries;
* :func:`diff_snapshots` — the delta a worker task produced, computed
  against a snapshot taken when the task started;
* :meth:`MetricsRegistry.merge` / :func:`merge_snapshots` — pure
  key-wise sums, so merging worker deltas into the parent is
  associative and order-independent: any task-completion order yields
  the same merged totals.

The registry observes; it never influences computation, so metrics can
never perturb sweep output.

``--metrics-out`` emits the registry as a versioned JSON envelope
(``format: repro-metrics, version: 1``).  :func:`validate_metrics`
checks a report against that schema without third-party dependencies;
CI runs it over the sweep-smoke artifact.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

METRICS_FORMAT = "repro-metrics"
METRICS_VERSION = 1

#: Counter suffix pair from which ``derived`` hit rates are computed.
_HIT_SUFFIX = "/hits"
_MISS_SUFFIX = "/misses"

Snapshot = Dict[str, Dict[str, object]]


class MetricsRegistry:
    """Thread-safe counters plus ``{count, total_s}`` wall-time timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Dict[str, float]] = {}

    # -- recording ---------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        amount = int(amount)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation of ``seconds`` wall time under ``name``."""
        seconds = float(seconds)
        with self._lock:
            entry = self._timers.get(name)
            if entry is None:
                entry = {"count": 0, "total_s": 0.0}
                self._timers[name] = entry
            entry["count"] += 1
            entry["total_s"] += seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and :meth:`observe` it under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Snapshot:
        """A picklable copy of the full registry state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {name: dict(entry) for name, entry in self._timers.items()},
            }

    # -- combining ---------------------------------------------------------

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Pure key-wise addition: merging deltas in any order produces the
        same totals, which is what makes worker→parent aggregation
        deterministic for any ``--jobs N`` scheduling.
        """
        counters = snapshot.get("counters", {})
        timers = snapshot.get("timers", {})
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(amount)
            for name, observed in timers.items():
                entry = self._timers.get(name)
                if entry is None:
                    entry = {"count": 0, "total_s": 0.0}
                    self._timers[name] = entry
                entry["count"] += int(observed["count"])
                entry["total_s"] += float(observed["total_s"])

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()


_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-wide registry every engine records into."""
    return _GLOBAL


def empty_snapshot() -> Snapshot:
    return {"counters": {}, "timers": {}}


def diff_snapshots(current: Snapshot, baseline: Snapshot) -> Snapshot:
    """The work recorded between ``baseline`` and ``current``.

    Counters/timers absent from ``baseline`` count from zero; entries
    that did not change are dropped, so deltas stay small on the wire.
    """
    base_counters = baseline.get("counters", {})
    base_timers = baseline.get("timers", {})
    counters = {}
    for name, amount in current.get("counters", {}).items():
        delta = int(amount) - int(base_counters.get(name, 0))
        if delta:
            counters[name] = delta
    timers = {}
    for name, observed in current.get("timers", {}).items():
        before = base_timers.get(name, {"count": 0, "total_s": 0.0})
        count = int(observed["count"]) - int(before["count"])
        total_s = float(observed["total_s"]) - float(before["total_s"])
        if count or total_s:
            timers[name] = {"count": count, "total_s": total_s}
    return {"counters": counters, "timers": timers}


def merge_snapshots(*snapshots: Snapshot) -> Snapshot:
    """Key-wise sum of snapshots; associative and order-independent."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


# -- the versioned JSON report (``--metrics-out``) -------------------------


def metrics_report(
    snapshot: Snapshot,
    *,
    command: Optional[str] = None,
    config_digest: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Wrap a snapshot in the versioned ``repro-metrics`` envelope."""
    counters = {name: int(v) for name, v in sorted(snapshot.get("counters", {}).items())}
    timers = {
        name: {"count": int(v["count"]), "total_s": float(v["total_s"])}
        for name, v in sorted(snapshot.get("timers", {}).items())
    }
    return {
        "format": METRICS_FORMAT,
        "version": METRICS_VERSION,
        "command": command,
        "config_digest": config_digest,
        "jobs": jobs,
        "counters": counters,
        "timers": timers,
        "derived": _derived_metrics(counters),
    }


def _derived_metrics(counters: Mapping[str, int]) -> Dict[str, float]:
    """Ratios recomputed from counters so they stay consistent post-merge."""
    derived: Dict[str, float] = {}
    for name, hits in counters.items():
        if not name.endswith(_HIT_SUFFIX):
            continue
        base = name[: -len(_HIT_SUFFIX)]
        misses = counters.get(base + _MISS_SUFFIX, 0)
        total = hits + misses
        if total:
            derived[base + "/hit_rate"] = hits / total
    routes = counters.get("routing/routes", 0)
    if routes:
        derived["routing/swaps_per_route"] = counters.get("routing/swaps", 0) / routes
    tasks = counters.get("supervisor/tasks", 0)
    if tasks:
        derived["supervisor/retries_per_task"] = (
            counters.get("supervisor/retries", 0) / tasks
        )
        derived["supervisor/quarantine_fraction"] = (
            counters.get("supervisor/quarantined_tasks", 0) / tasks
        )
    return dict(sorted(derived.items()))


_REPORT_KEYS = {
    "format", "version", "command", "config_digest", "jobs",
    "counters", "timers", "derived",
}
_REQUIRED_KEYS = {"format", "version", "counters", "timers", "derived"}


def validate_metrics(report: object) -> Dict[str, object]:
    """Validate a ``--metrics-out`` report against the v1 schema.

    Hand-rolled (no jsonschema dependency); raises :class:`ValueError`
    naming the offending field, and returns the report on success.
    """
    if not isinstance(report, dict):
        raise ValueError(f"metrics report must be an object, got {type(report).__name__}")
    missing = _REQUIRED_KEYS - report.keys()
    if missing:
        raise ValueError(f"metrics report missing keys: {sorted(missing)}")
    unknown = report.keys() - _REPORT_KEYS
    if unknown:
        raise ValueError(f"metrics report has unknown keys: {sorted(unknown)}")
    if report["format"] != METRICS_FORMAT:
        raise ValueError(f"bad metrics format: {report['format']!r}")
    if report["version"] != METRICS_VERSION:
        raise ValueError(f"unsupported metrics version: {report['version']!r}")
    for key in ("command", "config_digest"):
        value = report.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"metrics {key!r} must be a string or null")
    jobs = report.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1):
        raise ValueError(f"metrics 'jobs' must be a positive integer or null, got {jobs!r}")
    counters = report["counters"]
    if not isinstance(counters, dict):
        raise ValueError("metrics 'counters' must be an object")
    for name, value in counters.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"counter name must be a non-empty string, got {name!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {name!r} must be a non-negative integer, got {value!r}")
    timers = report["timers"]
    if not isinstance(timers, dict):
        raise ValueError("metrics 'timers' must be an object")
    for name, entry in timers.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"timer name must be a non-empty string, got {name!r}")
        if not isinstance(entry, dict) or entry.keys() != {"count", "total_s"}:
            raise ValueError(f"timer {name!r} must be an object with keys count, total_s")
        count = entry["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"timer {name!r} count must be a non-negative integer")
        total_s = entry["total_s"]
        if not isinstance(total_s, (int, float)) or isinstance(total_s, bool) or total_s < 0:
            raise ValueError(f"timer {name!r} total_s must be a non-negative number")
    derived = report["derived"]
    if not isinstance(derived, dict):
        raise ValueError("metrics 'derived' must be an object")
    for name, value in derived.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"derived name must be a non-empty string, got {name!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"derived {name!r} must be a number, got {value!r}")
    return report


def validate_metrics_file(path: Union[str, Path]) -> Dict[str, object]:
    """Load ``path`` as JSON and :func:`validate_metrics` it."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return validate_metrics(report)


def write_metrics(path: Union[str, Path], report: Dict[str, object]) -> None:
    """Validate and atomically write a report as deterministic JSON."""
    from repro.persistence import atomic_write_text

    validate_metrics(report)
    atomic_write_text(Path(path), json.dumps(report, indent=2, sort_keys=True) + "\n")
