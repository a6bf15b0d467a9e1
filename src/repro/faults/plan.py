"""Deterministic, content-addressed fault schedules.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries that
decide — as a pure function of ``(plan seed, injection site, task
digest, attempt, occurrence)`` — whether a fault fires at a given
injection site.  Plans are keyed by the same content digests the sweep
checkpoint uses (:func:`repro.evaluation.checkpoint.generation_task_key`
/ :func:`~repro.evaluation.checkpoint.point_task_key`), so a schedule
written against one sweep replays bit-identically on any ``--jobs``
level and survives task reordering.

Plans are ordinary JSON::

    {
      "format": "repro-fault-plan",
      "version": 1,
      "seed": 7,
      "faults": [
        {"site": "evaluate:start", "kind": "kill", "task": "3f9a"},
        {"site": "task:start", "kind": "hang", "task": "80c1", "delay_s": 60},
        {"site": "native-kernel", "kind": "segv", "task": "c44d"},
        {"site": "evaluate:start", "kind": "exit", "task": "11ab",
         "attempts": null}
      ]
    }

``task`` is a hex prefix of the content digest (``null`` matches every
task).  ``attempts`` lists the retry indices on which the fault fires:
the default ``[0]`` gives a transient fault (first attempt only, the
retry succeeds); ``null`` means *every* attempt — a poison task.
``rate`` (default 1.0) thins matches with a seeded hash so large sweeps
can sample faults without enumerating digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
PLAN_FORMAT = "repro-fault-plan"
PLAN_VERSION = 1

#: Recognised fault kinds.
#:
#: ``kill``       SIGKILL the current process (uncatchable worker crash)
#: ``exit``       ``os._exit`` with ``exit_code`` (abrupt but clean-exit crash)
#: ``segv``       SIGSEGV the current process (simulated native-kernel abort)
#: ``hang``       sleep ``delay_s`` seconds (optionally holding the GIL)
#: ``exception``  raise :class:`repro.faults.inject.FaultInjected`
#: ``corrupt``    truncate ``truncate_bytes`` from the tail of the store
#:                file passed to the injection site (simulated torn write).
#:                A tear shorter than one SQLite page (4,096 bytes),
#:                such as the default 16 bytes, can leave every record
#:                readable; a tear of a whole page reads as cold.
FAULT_KINDS = ("kill", "exit", "segv", "hang", "exception", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where, what, and for which task/attempts."""

    site: str
    kind: str
    task: Optional[str] = None
    attempts: Optional[Tuple[int, ...]] = (0,)
    rate: float = 1.0
    delay_s: float = 3600.0
    hold_gil: bool = False
    exit_code: int = 113
    truncate_bytes: int = 16

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def matches(self, site: str, task_digest: str, attempt: int) -> bool:
        """Structural match; the seeded ``rate`` draw happens in the plan."""
        if self.site != "*" and self.site != site:
            return False
        if self.task is not None and not task_digest.startswith(self.task):
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


def _spec_from_mapping(raw: Mapping[str, Any]) -> FaultSpec:
    known = {
        "site", "kind", "task", "attempts", "rate",
        "delay_s", "hold_gil", "exit_code", "truncate_bytes",
    }
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown fault spec keys: {unknown}")
    attempts = raw.get("attempts", (0,))
    if attempts is not None:
        attempts = tuple(int(value) for value in attempts)
    return FaultSpec(
        site=str(raw["site"]),
        kind=str(raw["kind"]),
        task=None if raw.get("task") is None else str(raw["task"]),
        attempts=attempts,
        rate=float(raw.get("rate", 1.0)),
        delay_s=float(raw.get("delay_s", 3600.0)),
        hold_gil=bool(raw.get("hold_gil", False)),
        exit_code=int(raw.get("exit_code", 113)),
        truncate_bytes=int(raw.get("truncate_bytes", 16)),
    )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults, replayable across processes."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if payload.get("format") != PLAN_FORMAT:
            raise ValueError(
                f"not a fault plan: format={payload.get('format')!r} "
                f"(expected {PLAN_FORMAT!r})"
            )
        if payload.get("version") != PLAN_VERSION:
            raise ValueError(
                f"unsupported fault plan version {payload.get('version')!r}"
            )
        faults = tuple(
            _spec_from_mapping(raw) for raw in payload.get("faults", ())
        )
        return cls(seed=int(payload.get("seed", 0)), faults=faults)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_mapping(json.loads(text))

    def to_mapping(self) -> Mapping[str, Any]:
        faults = []
        for spec in self.faults:
            entry: dict = {"site": spec.site, "kind": spec.kind}
            if spec.task is not None:
                entry["task"] = spec.task
            entry["attempts"] = (
                None if spec.attempts is None else list(spec.attempts)
            )
            if spec.rate != 1.0:
                entry["rate"] = spec.rate
            if spec.kind == "hang":
                entry["delay_s"] = spec.delay_s
                entry["hold_gil"] = spec.hold_gil
            if spec.kind == "exit":
                entry["exit_code"] = spec.exit_code
            if spec.kind == "corrupt":
                entry["truncate_bytes"] = spec.truncate_bytes
            faults.append(entry)
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "seed": self.seed,
            "faults": faults,
        }

    def _rate_draw(self, index: int, site: str, task_digest: str,
                   occurrence: int) -> float:
        material = f"{self.seed}|{index}|{site}|{task_digest}|{occurrence}"
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return int(digest[:12], 16) / float(16 ** 12)

    def select(self, site: str, task_digest: str, attempt: int,
               occurrence: int) -> Optional[FaultSpec]:
        """First spec that fires at this site for this task/attempt.

        Pure function of the arguments and the plan seed — the same
        schedule replays identically in every worker process.
        """
        for index, spec in enumerate(self.faults):
            if not spec.matches(site, task_digest, attempt):
                continue
            if spec.rate >= 1.0:
                return spec
            if self._rate_draw(index, site, task_digest, occurrence) < spec.rate:
                return spec
        return None


def write_plan(plan: FaultPlan, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(plan.to_mapping(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


__all__: Sequence[str] = (
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "write_plan",
)
