"""Lock/store-discipline rules (REPRO-S2xx).

Every persisted cache of this repo — routing cache, design cache, sweep
checkpoint — is written exclusively through :mod:`repro.persistence`
store APIs (``merge_save`` / ``union_merge_save``, one SQLite
transaction each), and every other file the program writes goes through
``atomic_write_text``.  A raw ``open(..., "w")`` + ``json.dump`` aimed
at a cache file bypasses both, reintroducing torn files and lost
updates.

* **REPRO-S201** — write-mode ``open()`` / ``Path.write_text`` /
  ``Path.write_bytes`` whose path expression looks cache-shaped
  (mentions ``cache`` / ``store`` / ``checkpoint`` / ``shard``)
  outside ``repro.persistence``.
* **REPRO-S202** — ``sqlite3.connect`` outside
  ``repro/persistence/sqlite.py``: the SQLite backend owns connection
  pragmas, transaction scope, and the upsert-merge discipline.
* **REPRO-S203** — ``os.replace`` / ``os.rename`` outside
  ``repro.persistence``: atomic replace-writes must flow through
  ``atomic_write_text`` so temp-file placement and fsync behavior stay
  in one place.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, call_keyword, rule

_CACHE_TOKENS = ("cache", "store", "checkpoint", "shard")
_WRITE_MODE_CHARS = set("wax+")


def _cache_shaped(module: ModuleContext, expr: ast.AST) -> bool:
    return any(
        token in name for name in module.name_tokens(expr) for token in _CACHE_TOKENS
    )


def _open_mode(call: ast.Call) -> Optional[str]:
    mode = call.args[1] if len(call.args) >= 2 else call_keyword(call, "mode")
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode expression: assume the worst


@rule(
    "REPRO-S201",
    "raw write to a cache-shaped path outside repro.persistence",
    exempt_prefixes=("src/repro/persistence/",),
)
def check_raw_cache_write(module: ModuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        # open(path, "w"/...) on a cache-shaped path expression.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and node.func.id not in module.aliases
            and node.args
        ):
            mode = _open_mode(node)
            writes = mode is None or bool(set(mode) & _WRITE_MODE_CHARS)
            path_expr = node.args[0]
            if writes and _cache_shaped(module, path_expr):
                findings.append(module.finding(
                    "REPRO-S201", node,
                    "raw write-mode open() on a cache-shaped path bypasses the "
                    "locked, atomic repro.persistence store APIs "
                    "(merge_save / union_merge_save / atomic_write_text)",
                ))
        # path.write_text(...) / path.write_bytes(...) on a cache-shaped receiver.
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"write_text", "write_bytes"}
            and _cache_shaped(module, node.func.value)
        ):
            findings.append(module.finding(
                "REPRO-S201", node,
                f".{node.func.attr}() on a cache-shaped path bypasses the "
                "locked, atomic repro.persistence store APIs",
            ))
    return findings


@rule(
    "REPRO-S202",
    "sqlite3.connect outside the persistence SQLite backend",
    exempt_prefixes=("src/repro/persistence/sqlite.py",),
)
def check_sqlite_outside_store(module: ModuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if module.resolve(node.func) == "sqlite3.connect":
            findings.append(module.finding(
                "REPRO-S202", node,
                "sqlite3.connect outside repro/persistence/sqlite.py: the "
                "store backend owns connection pragmas, transactions, and "
                "the upsert-merge discipline",
            ))
    return findings


@rule(
    "REPRO-S203",
    "os.replace/os.rename outside the persistence atomic-write helper",
    exempt_prefixes=("src/repro/persistence/",),
)
def check_raw_atomic_replace(module: ModuleContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve(node.func)
        if target in {"os.replace", "os.rename"}:
            findings.append(module.finding(
                "REPRO-S203", node,
                f"{target} outside repro.persistence: atomic replace-writes "
                "must flow through atomic_write_text so temp-file placement "
                "stays consistent",
            ))
    return findings
