"""Injection-site runtime for deterministic fault schedules.

Worker-side code declares *injection sites* — named points where a
:class:`~repro.faults.plan.FaultPlan` may fire::

    from repro import faults
    faults.maybe_inject("evaluate:start")

With no plan loaded (the production default) ``maybe_inject`` is a
single ``None`` check — zero overhead, no imports, no hashing.  A plan
is armed only via the ``REPRO_FAULT_PLAN`` environment variable (set by
``--fault-plan`` at the CLI, inherited by forked workers) or
:func:`arm` in tests.

The *task context* (content digest + attempt index) is established by
the supervised worker around each attempt via :func:`task_context`;
sites hit outside any task context see an empty digest and attempt 0,
so plan entries with ``"task": null`` still fire on unsupervised paths
(e.g. store corruption during a plain sweep).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar, Union

from repro.faults.plan import FAULT_PLAN_ENV, FaultPlan, FaultSpec


class FaultInjected(RuntimeError):
    """Raised by an ``exception``-kind fault at an injection site."""


_PLAN: Optional[FaultPlan] = None
_PLAN_LOADED = False
_CONTEXT = threading.local()
_OCCURRENCES: Dict[Tuple[str, str, int], int] = {}
_LOCK = threading.Lock()


def _load_plan() -> Optional[FaultPlan]:
    global _PLAN, _PLAN_LOADED
    if not _PLAN_LOADED:
        path = os.environ.get(FAULT_PLAN_ENV)
        _PLAN = FaultPlan.load(path) if path else None
        _PLAN_LOADED = True
    return _PLAN


def active() -> bool:
    """True when a fault plan is armed in this process."""
    return _load_plan() is not None


def arm(plan: Optional[FaultPlan]) -> None:
    """Arm (or clear, with ``None``) a plan directly — test hook."""
    global _PLAN, _PLAN_LOADED
    _PLAN = plan
    _PLAN_LOADED = True
    _OCCURRENCES.clear()


def reset() -> None:
    """Forget the cached plan so ``REPRO_FAULT_PLAN`` is re-read."""
    global _PLAN, _PLAN_LOADED
    _PLAN = None
    _PLAN_LOADED = False
    _OCCURRENCES.clear()


@contextmanager
def task_context(task_digest: str, attempt: int = 0) -> Iterator[None]:
    """Scope injection sites to a content-addressed task attempt."""
    previous = current_context()
    _CONTEXT.digest = task_digest
    _CONTEXT.attempt = attempt
    try:
        yield
    finally:
        _CONTEXT.digest, _CONTEXT.attempt = previous


def current_context() -> Tuple[str, int]:
    return (
        getattr(_CONTEXT, "digest", ""),
        getattr(_CONTEXT, "attempt", 0),
    )


def _hang(spec: FaultSpec) -> None:
    if spec.hold_gil:
        # Starve heartbeat threads too: sleep in the C runtime without
        # releasing the GIL, the shape of a wedged native extension.
        import ctypes

        libc = ctypes.PyDLL(None)
        remaining = spec.delay_s
        while remaining > 0:
            libc.sleep(int(min(remaining, 1.0)) or 1)
            remaining -= 1.0
    else:
        time.sleep(spec.delay_s)


def _corrupt(spec: FaultSpec, store_path: Union[str, Path]) -> None:
    """Tear the tail off a store file, as a crash mid-append would."""
    target = Path(store_path)
    if not target.is_file():
        return
    size = target.stat().st_size
    keep = max(0, size - spec.truncate_bytes)
    with open(target, "r+b") as handle:
        handle.truncate(keep)


def _execute(spec: FaultSpec, site: str,
             store_path: Optional[Union[str, Path]]) -> None:
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == "exit":
        os._exit(spec.exit_code)
    elif spec.kind == "segv":
        # Simulated native abort: die by SIGSEGV exactly as a memory
        # bug in the C merge kernel would, without corrupting the heap.
        os.kill(os.getpid(), signal.SIGSEGV)
    elif spec.kind == "hang":
        _hang(spec)
    elif spec.kind == "exception":
        raise FaultInjected(f"injected fault at site {site!r}")
    elif spec.kind == "corrupt":
        if store_path is not None:
            _corrupt(spec, store_path)


def maybe_inject(site: str, *,
                 store_path: Optional[Union[str, Path]] = None) -> None:
    """Fire a scheduled fault at ``site`` if the armed plan has one.

    ``store_path`` names the store file a ``corrupt`` fault would tear;
    sites that do not touch a store omit it.
    """
    plan = _load_plan()
    if plan is None:
        return
    digest, attempt = current_context()
    with _LOCK:
        key = (site, digest, attempt)
        occurrence = _OCCURRENCES.get(key, 0)
        _OCCURRENCES[key] = occurrence + 1
    spec = plan.select(site, digest, attempt, occurrence)
    if spec is None:
        return
    from repro.runtime.metrics import global_metrics

    global_metrics().increment(f"faults/injected:{spec.kind}")
    _execute(spec, site, store_path)


_F = TypeVar("_F", bound=Callable[..., object])


def fault_boundary(func: _F) -> _F:
    """Mark ``func`` as a sanctioned fault boundary.

    A fault boundary is a supervision-layer function whose job is to
    catch *everything* a task attempt can raise and convert it into a
    structured failure message for the supervisor.  The REPRO-R5xx lint
    rules allow blanket ``except`` handlers only inside functions
    carrying this marker; anywhere else in worker/supervision code a
    broad handler silently swallows faults the supervisor needs to see.
    """
    func.__fault_boundary__ = True  # type: ignore[attr-defined]
    return func


__all__ = (
    "FaultInjected",
    "active",
    "arm",
    "current_context",
    "fault_boundary",
    "maybe_inject",
    "reset",
    "task_context",
)
