"""Findings, suppressions, and the committed baseline file.

The linter's unit of output is a :class:`Finding`: one rule violation at
one source location.  Three mechanisms decide whether a finding fails
the run:

* **Inline suppressions** — a ``# repro-lint: disable=RULE`` comment on
  the offending line (or on a comment line directly above it) silences
  that rule there.  ``disable=all`` silences every rule for the line.
* **The baseline file** — ``lint-baseline.json`` at the repository root
  records *accepted* findings, each with a mandatory one-line
  justification.  A finding matches a baseline entry by ``(rule, path,
  context)`` — the context is the stripped source line (or a symbolic
  context for project-level rules), so entries survive line-number
  drift.  Baseline entries that no longer match anything are reported
  as stale so the file cannot silently rot.
* Everything else is a **new finding** and fails the run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BASELINE_FORMAT = "repro-lint-baseline"
BASELINE_VERSION = 1

#: ``# repro-lint: disable=REPRO-D101`` or ``disable=REPRO-D101,REPRO-S201``
#: or ``disable=all``.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``context`` is the finding's line-number-independent identity: the
    stripped source line for AST rules, or a symbolic marker such as
    ``field bus_strategy`` for project-level digest rules.  The
    baseline matches on ``(rule, path, context)``.
    """

    rule: str
    path: str
    line: int
    message: str
    context: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.context)


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, with its mandatory justification."""

    rule: str
    path: str
    context: str
    justification: str

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.context)


@dataclass
class LintReport:
    """The outcome of one lint run, split by disposition."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    checked_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.new

    def payload(self) -> Dict[str, object]:
        """A deterministic JSON-serializable image (the CI artifact)."""

        def finding_row(finding: Finding) -> Dict[str, object]:
            return {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
                "context": finding.context,
            }

        return {
            "format": "repro-lint-report",
            "version": 1,
            "checked_files": self.checked_files,
            "new": [finding_row(f) for f in sorted(self.new, key=Finding.key)],
            "baselined": [finding_row(f) for f in sorted(self.baselined, key=Finding.key)],
            "stale_baseline": [
                {"rule": e.rule, "path": e.path, "context": e.context,
                 "justification": e.justification}
                for e in sorted(self.stale_baseline, key=BaselineEntry.key)
            ],
        }


def suppressed_rules(source_lines: Sequence[str], line: int) -> frozenset:
    """The rule codes suppressed at 1-based ``line`` of ``source_lines``.

    A suppression applies from the flagged line itself or from a bare
    comment line directly above it (so long suppressions do not force
    long code lines).
    """
    codes: set = set()
    for candidate in (line, line - 1):
        if not 1 <= candidate <= len(source_lines):
            continue
        text = source_lines[candidate - 1]
        if candidate != line and not text.lstrip().startswith("#"):
            continue
        match = _SUPPRESS_RE.search(text)
        if match:
            codes.update(code.strip() for code in match.group(1).split(",") if code.strip())
    return frozenset(codes)


def is_suppressed(finding: Finding, source_lines: Sequence[str]) -> bool:
    codes = suppressed_rules(source_lines, finding.line)
    return "all" in codes or finding.rule in codes


# -- baseline file -----------------------------------------------------------


def load_baseline(path: Path) -> List[BaselineEntry]:
    """Load and validate ``lint-baseline.json``; missing file means empty.

    Every entry must carry a non-empty ``justification`` — the baseline
    exists to record *why* a finding is accepted, not merely to mute it.
    """
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise ValueError(f"{path}: not a {BASELINE_FORMAT} file")
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: unsupported baseline version {data.get('version')!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' must be a list")
    loaded = []
    for index, row in enumerate(entries):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: entry {index} must be an object")
        missing = {"rule", "path", "context", "justification"} - row.keys()
        if missing:
            raise ValueError(f"{path}: entry {index} missing keys {sorted(missing)}")
        justification = str(row["justification"]).strip()
        if not justification:
            raise ValueError(
                f"{path}: entry {index} ({row['rule']} at {row['path']}) has an "
                "empty justification; every baselined finding must say why it "
                "is accepted"
            )
        loaded.append(
            BaselineEntry(
                rule=str(row["rule"]),
                path=str(row["path"]),
                context=str(row["context"]),
                justification=justification,
            )
        )
    return loaded


def write_baseline(path: Path, entries: Sequence[BaselineEntry]) -> None:
    """Write a baseline file (used by ``--update-baseline``)."""
    payload = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "entries": [
            {"rule": e.rule, "path": e.path, "context": e.context,
             "justification": e.justification}
            for e in sorted(entries, key=BaselineEntry.key)
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry],
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into (new, baselined) and spot stale baseline entries.

    A baseline entry absorbs any number of findings with its key (one
    accepted pattern can legitimately match a repeated construct), and
    is stale only when it absorbed none.
    """
    by_key: Dict[Tuple[str, str, str], BaselineEntry] = {e.key(): e for e in entries}
    used: set = set()
    new: List[Finding] = []
    baselined: List[Finding] = []
    for finding in findings:
        entry = by_key.get(finding.key())
        if entry is None:
            new.append(finding)
        else:
            baselined.append(finding)
            used.add(entry.key())
    stale = [entry for entry in entries if entry.key() not in used]
    return new, baselined, stale


def baseline_entry_for(finding: Finding, justification: str) -> BaselineEntry:
    return BaselineEntry(
        rule=finding.rule, path=finding.path, context=finding.context,
        justification=justification,
    )


def default_baseline_path(root: Path) -> Path:
    return root / "lint-baseline.json"


def context_of(source_lines: Sequence[str], line: int) -> str:
    """The stripped source line at 1-based ``line`` (finding identity)."""
    if 1 <= line <= len(source_lines):
        return source_lines[line - 1].strip()
    return ""


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))
