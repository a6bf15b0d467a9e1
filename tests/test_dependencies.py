"""The program runs on numpy alone: networkx must not come back.

Both checks run in a fresh interpreter, because the test session itself
may have imported anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

GOLDEN = Path(__file__).parent / "golden" / "contracts.json"

#: Makes every ``import networkx`` raise, then profiles a benchmark and
#: writes the golden sweep's report to ``argv[2]`` (sweep argv in ``argv[1]``).
_BLOCKED_SCRIPT = """
import json, sys
sys.modules["networkx"] = None
from repro.cli import main
assert main(["profile", "sym6_145"]) == 0
assert main([*json.loads(sys.argv[1]), "--output", sys.argv[2]]) == 0
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_cli_import_does_not_load_networkx():
    result = _run("-c", "import sys, repro.cli; print('networkx' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_profile_and_golden_sweep_run_with_networkx_blocked(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = tmp_path / "report.json"
    result = _run("-c", _BLOCKED_SCRIPT, json.dumps(golden["sweep_argv"]), str(report))
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == golden["sweep_sha256"]["bfs-greedy"]
