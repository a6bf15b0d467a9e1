"""The supervised worker loop behind every multi-process sweep.

:func:`supervise` runs one phase of sweep tasks in worker processes it
owns directly, for :class:`~repro.evaluation.parallel.SweepExecutor`
whenever it does not run the tasks in-process (``--jobs N > 1``, or any
supervision flag at ``--jobs 1``):

* every worker gets a **dedicated pipe** (a SIGKILL'd worker can never
  wedge a shared queue lock) and a **heartbeat thread**;
* the parent detects dead workers (``is_alive``/exitcode), tasks past
  their **deadline**, and **heartbeat silence** (a wedged native call
  holding the GIL), kills the offender, and **replenishes the pool**;
* failed attempts are retried with **deterministic exponential
  backoff**, up to ``max_task_retries`` retries;
* a retry that follows a worker *crash* is **demoted** to the numpy
  screening backend (``REPRO_SCREENING_BACKEND=numpy`` semantics forced
  for that attempt) — safe because the backends are bit-identical by
  contract, so a native-kernel segfault costs speed, never results;
* a task that exhausts its retries is **quarantined**: reported back
  with its per-attempt failures and skipped, so the sweep completes
  with a partial-result report instead of dying.

Workers receive a task function's *name* and resolve it as an attribute
of :mod:`repro.evaluation.parallel` at call time, so a rebinding of that
attribute (a tracer's wrapper, a test double) is what runs.

Dispatch is **benchmark-affine**: every task belongs to a group (its
benchmark), and an idle worker takes the lowest-index eligible task of
the group it last ran, else of a group no other live worker holds, else
of any group (:func:`_pick_task`).  A worker thus keeps one benchmark's
profile, routers and Algorithm 3 memo warm instead of rebuilding every
benchmark's, and no worker waits while an eligible task is pending.  A
retired worker's group is free again; a replacement starts with none.

Determinism: tasks are collected **by grid index**, each attempt
re-derives the task's per-point seeds from its content identity, and
worker metrics deltas merge key-wise — so for the non-quarantined
points the sweep output is byte-identical to a fault-free run, for any
``--jobs`` count, any dispatch order, any backend, and any fault
schedule.

Every supervision event is counted in the
:class:`~repro.runtime.metrics.MetricsRegistry` (``supervisor/tasks``,
``supervisor/retries``, ``supervisor/worker_crashes``,
``supervisor/worker_restarts``, ``supervisor/deadline_kills``,
``supervisor/heartbeat_timeouts``, ``supervisor/backend_demotions``,
``supervisor/quarantined_tasks``) and lands in ``--metrics-out``.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import faults
from repro.runtime.metrics import global_metrics

FAILURE_REPORT_FORMAT = "repro-sweep-failures"
FAILURE_REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# Policy and failure records.
# ---------------------------------------------------------------------------


#: How often workers prove liveness.
HEARTBEAT_INTERVAL_S = 0.25
#: Upper bound on any single retry backoff delay.
BACKOFF_CAP_S = 2.0
#: How long to wait for workers to exit cleanly.
SHUTDOWN_GRACE_S = 5.0


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs.

    None of these can affect sweep *values* (retries re-derive the same
    content-addressed seeds), so the policy deliberately lives outside
    :class:`~repro.runtime.config.RuntimeConfig` and the config digest.
    Every retry that follows a worker crash runs on the numpy screening
    backend.

    Args:
        task_deadline_s: Kill a task attempt running longer than this
            (None disables; hung workers then require heartbeats).
        heartbeat_timeout_s: Kill a busy worker silent this long — the
            GIL-holding-hang detector (None disables).
        max_task_retries: Retries *after* the first attempt before a
            task is quarantined.
        backoff_base_s: Retry ``n`` (1-based) becomes eligible after
            ``backoff_base_s * 2**(n-1)`` seconds, capped at
            :data:`BACKOFF_CAP_S` — deterministic, no jitter, so
            schedules replay.
    """

    task_deadline_s: Optional[float] = None
    heartbeat_timeout_s: Optional[float] = None
    max_task_retries: int = 2
    backoff_base_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        for name in ("task_deadline_s", "heartbeat_timeout_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not (math.isfinite(self.backoff_base_s) and self.backoff_base_s >= 0):
            raise ValueError(
                f"backoff_base_s must be finite and >= 0, got {self.backoff_base_s}"
            )

    def backoff_delay(self, retry_number: int) -> float:
        """Delay before 1-based retry ``retry_number`` becomes eligible."""
        return min(BACKOFF_CAP_S, self.backoff_base_s * (2 ** (retry_number - 1)))


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt of one task."""

    reason: str  #: "crash" | "deadline" | "heartbeat" | "error"
    detail: str
    attempt: int
    backend: Optional[str]  #: screening backend forced for the attempt

    def record(self) -> dict:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "attempt": self.attempt,
            "backend": self.backend,
        }


@dataclass
class QuarantinedTask:
    """A task that exhausted its retries and was skipped."""

    task: str  #: "generation" | "point"
    key: str
    benchmark: str
    config: str
    arch_index: Optional[int]
    attempts: int
    failures: List[TaskFailure] = field(default_factory=list)

    def record(self) -> dict:
        """The structured failure entry (checkpoint + ``--failures-out``)."""
        return {
            "task": self.task,
            "key": self.key,
            "benchmark": self.benchmark,
            "config": self.config,
            "arch_index": self.arch_index,
            "attempts": self.attempts,
            "failures": [failure.record() for failure in self.failures],
        }


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@contextmanager
def _forced_backend(backend: Optional[str]):
    """Force a screening backend for one attempt (bit-identical swap)."""
    if backend is None:
        yield
        return
    from repro.collision import merge_kernel

    previous = merge_kernel.active_backend()
    merge_kernel.set_backend(backend)
    try:
        yield
    finally:
        merge_kernel.set_backend(previous)


@faults.fault_boundary
def _run_attempt(
    task_name: str, task: Any, digest: str, attempt: int, backend: Optional[str],
) -> Tuple[str, Any, Any]:
    """Run one task attempt, converting any raise into a failure message."""
    # Deferred: parallel imports this module, and the attribute must be
    # looked up at call time to see any rebinding.
    from repro.evaluation import parallel

    try:
        with faults.task_context(digest, attempt):
            faults.maybe_inject("task:start")
            with _forced_backend(backend):
                payload, delta = getattr(parallel, task_name)(task)
        return "done", payload, delta
    except Exception as error:  # fault boundary: reported, never swallowed
        detail = f"{type(error).__name__}: {error}"
        return "error", f"{detail}\n{traceback.format_exc(limit=8)}", None


def _worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Worker loop: receive task attempts, run them, send results + beats."""
    stop = threading.Event()
    send_lock = threading.Lock()

    def _send(message: Tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError, ValueError):
                stop.set()  # parent is gone; let the recv loop exit

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            _send(("heartbeat", worker_id))

    threading.Thread(target=_beat, daemon=True, name="supervisor-heartbeat").start()
    while not stop.is_set():
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, attempt, digest, backend, task_name, task = message
        status, payload, delta = _run_attempt(task_name, task, digest, attempt, backend)
        _send(("result", worker_id, index, attempt, status, payload, delta))
    stop.set()


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Worker:
    """Parent-side handle on one worker process."""

    id: int
    process: Any
    conn: Any
    last_beat: float
    task_index: Optional[int] = None
    group: Optional[str] = None  #: the group of the last task dispatched
    attempt: int = 0
    backend: Optional[str] = None
    dispatched_at: float = 0.0

    @property
    def busy(self) -> bool:
        return self.task_index is not None

    def clear(self) -> None:
        self.task_index = None
        self.backend = None


@dataclass(frozen=True)
class _Pending:
    index: int
    attempt: int
    eligible_at: float
    backend: Optional[str] = None


def _pick_task(
    eligible: Iterable[int],
    groups: Sequence[str],
    worker_id: int,
    holdings: Mapping[int, Optional[str]],
) -> Optional[int]:
    """The task index idle worker ``worker_id`` takes next (None if none).

    ``eligible`` holds the indices of the pending tasks past their
    backoff, ``groups[i]`` is task ``i``'s group, and ``holdings`` maps
    every live worker's id to its group (None before its first task).
    The worker takes the lowest eligible index of its own group, else of
    a group no other live worker holds, else of any group.
    """
    own = holdings.get(worker_id)
    held = {group for other, group in holdings.items() if other != worker_id}

    def rank(index: int) -> Tuple[int, int]:
        group = groups[index]
        return (0 if group == own else 1 if group not in held else 2), index

    return min(eligible, key=rank, default=None)


def supervise(
    task_name: str,
    tasks: Sequence[Any],
    digests: Sequence[str],
    groups: Sequence[str],
    jobs: int,
    policy: SupervisorPolicy,
) -> Tuple[List[Optional[Tuple[Any, Any]]], Dict[int, List[TaskFailure]]]:
    """Run ``tasks`` in up to ``jobs`` supervised workers.

    ``task_name`` names the task function in
    :mod:`repro.evaluation.parallel`; ``digests[i]`` is task ``i``'s
    content key, which scopes fault plans to it, and ``groups[i]`` its
    dispatch group (see :func:`_pick_task`).  Returns, in task
    order, each task's ``(payload, metrics_delta)`` (None if it was
    quarantined), and the per-attempt failures of every quarantined
    task keyed by its index, in index order.
    """
    metrics = global_metrics()
    total = len(tasks)
    metrics.increment("supervisor/tasks", total)

    outcomes: List[Optional[Tuple[Any, Any]]] = [None] * total
    quarantined: Dict[int, List[TaskFailure]] = {}
    failures: Dict[int, List[TaskFailure]] = {index: [] for index in range(total)}
    demoted: set = set()
    pending = deque(_Pending(index, 0, 0.0) for index in range(total))
    finished = 0

    workers: Dict[int, _Worker] = {}
    next_worker_id = 0
    target = min(jobs, total)

    def _spawn(replacement: bool) -> None:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, worker_id, HEARTBEAT_INTERVAL_S),
            daemon=True,
            name=f"sweep-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        workers[worker_id] = _Worker(worker_id, process, parent_conn, time.monotonic())
        if replacement:
            metrics.increment("supervisor/worker_restarts")

    def _retire(worker: _Worker) -> None:
        workers.pop(worker.id, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(SHUTDOWN_GRACE_S)

    def _attempt_failed(
        index: int, attempt: int, reason: str, detail: str,
        backend: Optional[str],
    ) -> None:
        nonlocal finished
        failures[index].append(TaskFailure(reason, detail, attempt, backend))
        if attempt >= policy.max_task_retries:
            quarantined[index] = failures[index]
            metrics.increment("supervisor/quarantined_tasks")
            finished += 1
            return
        if reason == "crash":
            demoted.add(index)
        next_backend = "numpy" if index in demoted else None
        if next_backend is not None and backend is None:
            metrics.increment("supervisor/backend_demotions")
        eligible_at = time.monotonic() + policy.backoff_delay(attempt + 1)
        pending.append(_Pending(index, attempt + 1, eligible_at, next_backend))
        metrics.increment("supervisor/retries")

    def _fail_worker_task(worker: _Worker, reason: str, detail: str) -> None:
        index, attempt, backend = worker.task_index, worker.attempt, worker.backend
        worker.clear()
        if index is not None and outcomes[index] is None and index not in quarantined:
            _attempt_failed(index, attempt, reason, detail, backend)

    def _dispatch(worker: _Worker, item: _Pending) -> bool:
        message = (
            "task", item.index, item.attempt, digests[item.index],
            item.backend, task_name, tasks[item.index],
        )
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            pending.appendleft(item)  # worker died idle; not a task failure
            _retire(worker)
            return False
        worker.task_index = item.index
        worker.group = groups[item.index]
        worker.attempt = item.attempt
        worker.backend = item.backend
        worker.dispatched_at = worker.last_beat = time.monotonic()
        return True

    def _handle_message(worker: _Worker, message: Tuple) -> None:
        nonlocal finished
        worker.last_beat = time.monotonic()
        if message[0] != "result":
            return
        _, _, index, attempt, status, payload, delta = message
        if worker.task_index != index or outcomes[index] is not None:
            worker.clear()
            return  # stale result (task already resolved elsewhere)
        backend = worker.backend
        worker.clear()
        if status == "done":
            outcomes[index] = (payload, delta)
            finished += 1
        else:
            _attempt_failed(index, attempt, "error", payload, backend)

    try:
        for _ in range(target):
            _spawn(replacement=False)
        while finished < total:
            now = time.monotonic()
            # Keep the pool at strength while work remains.
            while len(workers) < target and (pending or any(
                worker.busy for worker in workers.values()
            ) or not workers):
                _spawn(replacement=True)
            # Hand eligible attempts to idle workers, by group affinity.
            idle = [w for w in workers.values() if not w.busy]
            for worker in idle:
                eligible = {
                    item.index: item for item in pending if item.eligible_at <= now
                }
                holdings = {w.id: w.group for w in workers.values()}
                index = _pick_task(eligible, groups, worker.id, holdings)
                if index is None:
                    break
                item = eligible[index]
                pending.remove(item)
                _dispatch(worker, item)
            if finished >= total:
                break
            # Wait for results/heartbeats; short tick bounds every
            # health check (deadline, heartbeat, backoff eligibility).
            conns = [w.conn for w in workers.values()]
            ready = mp_connection.wait(conns, timeout=0.05) if conns else []
            by_conn = {w.conn: w for w in workers.values()}
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None:
                    continue
                try:
                    while conn.poll():
                        _handle_message(worker, conn.recv())
                except (EOFError, OSError):
                    pass  # torn pipe: the liveness check below decides
            # Liveness, deadline, and heartbeat enforcement.
            now = time.monotonic()
            for worker in list(workers.values()):
                if not worker.process.is_alive():
                    exitcode = worker.process.exitcode
                    metrics.increment("supervisor/worker_crashes")
                    _fail_worker_task(
                        worker, "crash", f"worker exited with code {exitcode}",
                    )
                    _retire(worker)
                elif worker.busy and policy.task_deadline_s is not None and \
                        now - worker.dispatched_at > policy.task_deadline_s:
                    metrics.increment("supervisor/deadline_kills")
                    deadline = policy.task_deadline_s
                    _fail_worker_task(
                        worker, "deadline",
                        f"task exceeded {deadline:.3f}s deadline",
                    )
                    _retire(worker)
                elif worker.busy and policy.heartbeat_timeout_s is not None and \
                        now - worker.last_beat > policy.heartbeat_timeout_s:
                    metrics.increment("supervisor/heartbeat_timeouts")
                    timeout = policy.heartbeat_timeout_s
                    _fail_worker_task(
                        worker, "heartbeat",
                        f"no heartbeat for {timeout:.3f}s",
                    )
                    _retire(worker)
    finally:
        for worker in list(workers.values()):
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in list(workers.values()):
            worker.process.join(SHUTDOWN_GRACE_S)
            _retire(worker)

    return outcomes, dict(sorted(quarantined.items()))
