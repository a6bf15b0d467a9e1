"""Fork/merge-safety rules (REPRO-P4xx).

Sweep tasks are shipped to ``multiprocessing`` workers as pickled
payloads, and their metrics come back as snapshot deltas that the
parent folds together.  Two things keep that safe:

* **REPRO-P401** — objects crossing the fork boundary must be
  picklable-by-construction.  In any module that imports
  ``multiprocessing`` / ``concurrent.futures`` or the supervised worker
  loop (``repro.evaluation.supervisor``, whose callers build the task
  payloads its workers receive), lambdas handed to pool
  mapping APIs and worker-payload dataclass fields holding callables or
  open handles are flagged: they pickle late (or never) and only fail
  under ``--jobs N``.
* **REPRO-P402** — the :class:`~repro.runtime.metrics.MetricsRegistry`
  merge algebra is associative only because every mutation goes through
  ``increment`` / ``observe`` / ``merge``.
  Touching the private ``_counters`` / ``_timers`` dicts from outside
  ``repro/runtime/metrics.py`` can break the key-wise-sum contract that
  makes worker-delta merges order-independent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, rule

_POOL_METHODS = {
    "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async", "submit",
}
_UNPICKLABLE_ANNOTATION_TOKENS = ("Callable", "TextIO", "BinaryIO", "IO[")
_FORK_MODULES = {"multiprocessing", "concurrent"}
_SUPERVISOR_MODULE = "repro.evaluation.supervisor"


def _uses_fork(module: ModuleContext) -> bool:
    return bool(_FORK_MODULES & set(module.imported_modules)) or any(
        (origin + ".").startswith(_SUPERVISOR_MODULE + ".")
        for origin in module.aliases.values()
    )


def _is_dataclass_def(module: ModuleContext, node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        resolved = module.resolve(target)
        if resolved in {"dataclasses.dataclass", "dataclass"}:
            return True
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


@rule("REPRO-P401", "unpicklable construct in a multiprocessing module")
def check_fork_payloads(module: ModuleContext) -> Iterable[Finding]:
    if not _uses_fork(module):
        return []
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _POOL_METHODS:
                values = list(node.args) + [kw.value for kw in node.keywords]
                for value in values:
                    if isinstance(value, ast.Lambda):
                        findings.append(module.finding(
                            "REPRO-P401", value,
                            f"lambda passed to .{node.func.attr}(): lambdas do "
                            "not pickle, so this fails only under --jobs N; "
                            "use a module-level function",
                        ))
        elif isinstance(node, ast.ClassDef) and _is_dataclass_def(module, node):
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                annotation = ast.unparse(statement.annotation)
                if any(token in annotation for token in _UNPICKLABLE_ANNOTATION_TOKENS):
                    findings.append(module.finding(
                        "REPRO-P401", statement,
                        f"dataclass field annotated {annotation!r} in a "
                        "multiprocessing module: callables and open handles "
                        "are not picklable-by-construction worker payload",
                    ))
    return findings


@rule(
    "REPRO-P402",
    "direct access to MetricsRegistry private state",
    exempt_prefixes=("src/repro/runtime/metrics.py",),
)
def check_metrics_algebra(module: ModuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in {"_counters", "_timers"}:
            findings.append(module.finding(
                "REPRO-P402", node,
                f"direct .{node.attr} access outside repro/runtime/metrics.py: "
                "only the increment/observe/merge API keeps the snapshot "
                "merge algebra associative (counters sum, timers sum "
                "count/total_s)",
            ))
    return findings
