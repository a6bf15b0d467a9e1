"""Tests for the invariant linter (``repro.analysis``).

Four layers of coverage, mirroring how the linter can fail:

* **fixture suites** — per-rule good/bad snippets through
  :func:`lint_source`, proving each rule fires on its violation class
  and stays quiet on the sanctioned idiom;
* **mutation harness** — each violation class is planted into a *real*
  repo module and the rule must catch it there (and must NOT fire on
  the unmutated source, proving the module is clean and the detection
  comes from the planted code);
* **digest-completeness contracts** — the dynamic probes pass on the
  real config classes, and a synthetic ``RuntimeConfig`` subclass with
  an undigested ``phantom_knob`` field must produce exactly one
  REPRO-C301 finding;
* **driver behavior** — suppressions, baseline round-trip/staleness,
  exit codes, report artifact, and the ``repro-design lint`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source, lint_tree
from repro.analysis.digest_check import (
    design_options_key_findings,
    probe_digest_fields,
    routing_params_findings,
    runtime_config_findings,
)
from repro.analysis.findings import (
    BaselineEntry,
    Finding,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.runner import PARSE_ERROR_RULE, main as lint_main
from repro.analysis.rules import registered_rules
from repro.cli import main as cli_main
from repro.runtime.config import RuntimeConfig

ROOT = Path(__file__).resolve().parents[1]

ALL_RULE_CODES = {rule.code for rule in registered_rules()}


def codes(source: str, path: str = "src/repro/module_under_test.py") -> set:
    """Rule codes :func:`lint_source` reports for a dedented snippet."""
    return {f.rule for f in lint_source(textwrap.dedent(source), path)}


# -- fixture suites: one bad/good pair per violation class -------------------

BAD_FIXTURES = [
    ("REPRO-D101", "import numpy as np\n\nvalues = np.random.rand(3)\n"),
    ("REPRO-D101", "import numpy as np\n\nrng = np.random.default_rng()\n"),
    ("REPRO-D101", "import random\n\nrandom.shuffle([1, 2, 3])\n"),
    ("REPRO-D101", "import random\n\nrng = random.Random()\n"),
    ("REPRO-D101", "import random\n\nrng = random.SystemRandom()\n"),
    ("REPRO-D102", "import time\n\nstamp = time.time()\n"),
    ("REPRO-D102", "from datetime import datetime\n\nnow = datetime.now()\n"),
    ("REPRO-D103", "import os\n\nnames = os.listdir('.')\n"),
    ("REPRO-D103", "import glob\n\npaths = glob.glob('*.json')\n"),
    ("REPRO-D103", "def scan(path):\n    return list(path.iterdir())\n"),
    ("REPRO-D104", "for item in {1, 2, 3}:\n    print(item)\n"),
    ("REPRO-D104", "result = [x for x in set([3, 1, 2])]\n"),
    ("REPRO-D105", "import json\n\ndef dump(data):\n    return json.dumps(data)\n"),
    (
        "REPRO-S201",
        "def save(cache_path, payload):\n"
        "    with open(cache_path, 'w') as handle:\n"
        "        handle.write(payload)\n",
    ),
    (
        "REPRO-S201",
        "from pathlib import Path\n\n"
        "def save(text):\n"
        "    Path('design-cache.json').write_text(text)\n",
    ),
    ("REPRO-S202", "import sqlite3\n\nconn = sqlite3.connect('entries.sqlite')\n"),
    ("REPRO-S203", "import os\n\nos.replace('tmp.json', 'final.json')\n"),
    (
        "REPRO-P401",
        "import multiprocessing\n\n"
        "def run(pool, tasks):\n"
        "    return pool.map(lambda task: task, tasks)\n",
    ),
    (
        "REPRO-P401",
        "import multiprocessing\n"
        "from dataclasses import dataclass\n"
        "from typing import Callable\n\n"
        "@dataclass\n"
        "class Task:\n"
        "    fn: Callable[[int], int]\n",
    ),
    # A module that hands tasks to the supervised worker loop builds fork
    # payloads without importing multiprocessing itself.
    (
        "REPRO-P401",
        "from repro.evaluation.supervisor import supervise\n\n"
        "def run(pool, tasks):\n"
        "    return pool.map(lambda task: task, tasks)\n",
    ),
    ("REPRO-P402", "def poke(registry):\n    registry._counters['x'] = 1\n"),
]

GOOD_FIXTURES = [
    ("REPRO-D101", "import numpy as np\n\nrng = np.random.default_rng(7)\n"),
    ("REPRO-D101", "import numpy as np\n\ngen = np.random.Generator(np.random.PCG64(1))\n"),
    ("REPRO-D101", "import random\n\nrng = random.Random(13)\n"),
    # A local variable merely *named* random must not trigger the rule.
    ("REPRO-D101", "random = object()\nrandom.shuffle([1])\n"),
    ("REPRO-D102", "import time\n\nelapsed = time.perf_counter()\n"),
    ("REPRO-D103", "import os\n\nnames = sorted(os.listdir('.'))\n"),
    ("REPRO-D103", "def scan(path):\n    return sorted(path.rglob('*.py'))\n"),
    ("REPRO-D104", "for item in sorted({1, 2, 3}):\n    print(item)\n"),
    # Set membership is order-free; only iteration is flagged.
    ("REPRO-D104", "found = 2 in {1, 2, 3}\n"),
    ("REPRO-D105", "import json\n\ntext = json.dumps({'a': 1}, sort_keys=True)\n"),
    # Read-mode open on a cache path is fine; write to a non-cache path too.
    ("REPRO-S201", "def load(cache_path):\n    with open(cache_path) as fh:\n        return fh.read()\n"),
    ("REPRO-S201", "def note(report_path, text):\n    with open(report_path, 'w') as fh:\n        fh.write(text)\n"),
    # The same lambda outside a multiprocessing module never crosses a fork.
    ("REPRO-P401", "def run(pool, tasks):\n    return pool.map(lambda task: task, tasks)\n"),
    ("REPRO-P402", "def bump(registry):\n    registry.increment('x')\n"),
]


@pytest.mark.parametrize("rule_code,snippet", BAD_FIXTURES)
def test_rule_fires_on_violation(rule_code, snippet):
    assert rule_code in codes(snippet)


@pytest.mark.parametrize("rule_code,snippet", GOOD_FIXTURES)
def test_rule_quiet_on_sanctioned_idiom(rule_code, snippet):
    assert rule_code not in codes(snippet)


# -- worker exception-discipline fixtures (REPRO-R5xx) -----------------------
# These rules are path-scoped to the modules that run under the sweep
# supervisor, so their fixtures lint under a worker-module path.

WORKER_PATH = "src/repro/faults/fixture_under_test.py"

WORKER_BAD_FIXTURES = [
    (
        "REPRO-R501",
        "def run(fn):\n    try:\n        return fn()\n    except:\n        return None\n",
    ),
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except Exception:\n        return None\n",
    ),
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except BaseException:\n        return None\n",
    ),
    # A tuple that includes Exception is just as blanket.
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except (ValueError, Exception):\n        return None\n",
    ),
    # A raise inside a nested def does not re-raise the caught exception.
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except Exception:\n"
        "        def later():\n            raise RuntimeError('deferred')\n"
        "        return later\n",
    ),
]

WORKER_GOOD_FIXTURES = [
    ("REPRO-R501", "def run(fn):\n    try:\n        return fn()\n    except OSError:\n        return None\n"),
    # Specific exception tuples are the sanctioned non-boundary idiom.
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except (BrokenPipeError, OSError):\n        return None\n",
    ),
    # Re-raising keeps the failure visible to the supervisor.
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except Exception:\n        raise\n",
    ),
    (
        "REPRO-R502",
        "def run(fn):\n    try:\n        return fn()\n"
        "    except Exception as error:\n        raise RuntimeError('wrapped') from error\n",
    ),
    # The sanctioned fault boundary: marked, and the error is reported.
    (
        "REPRO-R502",
        "from repro import faults\n\n"
        "@faults.fault_boundary\n"
        "def run_attempt(fn):\n    try:\n        return 'done', fn()\n"
        "    except Exception as error:\n        return 'error', str(error)\n",
    ),
    (
        "REPRO-R502",
        "from repro.faults import fault_boundary\n\n"
        "@fault_boundary\n"
        "def run_attempt(fn):\n    try:\n        return 'done', fn()\n"
        "    except Exception as error:\n        return 'error', str(error)\n",
    ),
]


@pytest.mark.parametrize("rule_code,snippet", WORKER_BAD_FIXTURES)
def test_worker_rule_fires_on_violation(rule_code, snippet):
    assert rule_code in codes(snippet, path=WORKER_PATH)


@pytest.mark.parametrize("rule_code,snippet", WORKER_BAD_FIXTURES)
def test_worker_rules_stay_out_of_non_worker_modules(rule_code, snippet):
    assert rule_code not in codes(snippet)


@pytest.mark.parametrize("rule_code,snippet", WORKER_GOOD_FIXTURES)
def test_worker_rule_quiet_on_sanctioned_idiom(rule_code, snippet):
    assert rule_code not in codes(snippet, path=WORKER_PATH)


def test_every_ast_rule_has_a_bad_fixture():
    covered = {code for code, _ in BAD_FIXTURES}
    covered |= {code for code, _ in WORKER_BAD_FIXTURES}
    assert covered == ALL_RULE_CODES


# -- path-prefix exemptions --------------------------------------------------

def test_persistence_layer_exempt_from_store_and_json_rules():
    raw_write = (
        "def save(cache_path, payload):\n"
        "    with open(cache_path, 'w') as handle:\n"
        "        handle.write(payload)\n"
    )
    assert "REPRO-S201" in codes(raw_write)
    assert "REPRO-S201" not in codes(raw_write, path="src/repro/persistence/json_store.py")

    dumps = "import json\n\ntext = json.dumps({'a': 1})\n"
    assert "REPRO-D105" in codes(dumps)
    assert "REPRO-D105" not in codes(dumps, path="src/repro/persistence/entry_codec.py")


def test_sqlite_connect_exempt_only_in_sqlite_backend():
    snippet = "import sqlite3\n\nconn = sqlite3.connect('entries.sqlite')\n"
    assert "REPRO-S202" in codes(snippet, path="src/repro/persistence/other.py")
    assert "REPRO-S202" not in codes(snippet, path="src/repro/persistence/sqlite.py")


def test_metrics_module_exempt_from_private_state_rule():
    snippet = "def poke(registry):\n    registry._counters['x'] = 1\n"
    assert "REPRO-P402" not in codes(snippet, path="src/repro/runtime/metrics.py")


# -- inline suppressions -----------------------------------------------------

def test_suppression_on_offending_line():
    assert codes(
        "import time\n\nstamp = time.time()  # repro-lint: disable=REPRO-D102\n"
    ) == set()


def test_suppression_on_comment_line_above():
    assert codes(
        "import time\n\n# repro-lint: disable=REPRO-D102\nstamp = time.time()\n"
    ) == set()


def test_suppression_disable_all():
    assert codes(
        "import time\n\nstamp = time.time()  # repro-lint: disable=all\n"
    ) == set()


def test_suppression_of_other_rule_does_not_mute():
    assert "REPRO-D102" in codes(
        "import time\n\nstamp = time.time()  # repro-lint: disable=REPRO-D101\n"
    )


def test_suppression_lists_multiple_rules():
    source = (
        "import time\nimport os\n\n"
        "# repro-lint: disable=REPRO-D102,REPRO-D103\n"
        "value = time.time() if os.listdir('.') else 0\n"
    )
    assert codes(source) == set()


def test_unparsable_file_reports_parse_error_rule():
    findings = lint_source("def broken(:\n", "src/repro/broken.py")
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]


# -- mutation harness: plant each violation class in a real module -----------

MUTATIONS = {
    "REPRO-D101": (
        "src/repro/collision/merge_kernel.py",
        "\n\ndef _planted_lint_probe():\n"
        "    import numpy as _probe_np\n"
        "    return _probe_np.random.rand(4)\n",
    ),
    "REPRO-D102": (
        "src/repro/runtime/metrics.py",
        "\n\ndef _planted_lint_probe():\n"
        "    import time as _probe_time\n"
        "    return _probe_time.time()\n",
    ),
    "REPRO-D103": (
        "src/repro/runtime/config.py",
        "\n\ndef _planted_lint_probe(path):\n"
        "    import os as _probe_os\n"
        "    return _probe_os.listdir(path)\n",
    ),
    "REPRO-D104": (
        "src/repro/design/engine.py",
        "\n\ndef _planted_lint_probe(values):\n"
        "    return [item for item in set(values)]\n",
    ),
    "REPRO-D105": (
        "src/repro/runtime/config.py",
        "\n\ndef _planted_lint_probe(payload):\n"
        "    import json as _probe_json\n"
        "    return _probe_json.dumps(payload)\n",
    ),
    "REPRO-S201": (
        "src/repro/design/engine.py",
        "\n\ndef _planted_lint_probe(cache_path, payload):\n"
        "    with open(cache_path, 'w') as handle:\n"
        "        handle.write(payload)\n",
    ),
    "REPRO-S202": (
        "src/repro/runtime/config.py",
        "\n\ndef _planted_lint_probe(path):\n"
        "    import sqlite3 as _probe_sqlite\n"
        "    return _probe_sqlite.connect(path)\n",
    ),
    "REPRO-S203": (
        "src/repro/collision/merge_kernel.py",
        "\n\ndef _planted_lint_probe(tmp_path, final_path):\n"
        "    import os as _probe_os\n"
        "    _probe_os.replace(tmp_path, final_path)\n",
    ),
    "REPRO-P401": (
        "src/repro/evaluation/parallel.py",
        "\n\ndef _planted_lint_probe(pool, tasks):\n"
        "    return pool.map(lambda task: task, tasks)\n",
    ),
    "REPRO-P402": (
        "src/repro/evaluation/parallel.py",
        "\n\ndef _planted_lint_probe(registry):\n"
        "    registry._counters['probe'] = 1\n",
    ),
    "REPRO-R501": (
        "src/repro/evaluation/parallel.py",
        "\n\ndef _planted_lint_probe(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except:\n"
        "        return None\n",
    ),
    "REPRO-R502": (
        "src/repro/evaluation/supervisor.py",
        "\n\ndef _planted_lint_probe(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        return None\n",
    ),
}


def test_mutation_table_covers_every_ast_rule():
    assert set(MUTATIONS) == ALL_RULE_CODES


@pytest.mark.parametrize("rule_code", sorted(MUTATIONS))
def test_mutation_harness_detects_planted_violation(rule_code):
    relpath, snippet = MUTATIONS[rule_code]
    original = (ROOT / relpath).read_text(encoding="utf-8")
    clean_codes = {f.rule for f in lint_source(original, relpath)}
    assert rule_code not in clean_codes, f"{relpath} already violates {rule_code}"
    mutated_codes = {f.rule for f in lint_source(original + snippet, relpath)}
    assert rule_code in mutated_codes, f"planted {rule_code} not detected in {relpath}"
    # The planted snippet introduces exactly its own violation class.
    assert mutated_codes - clean_codes == {rule_code}


# -- digest-completeness contracts -------------------------------------------

def test_runtime_config_digest_probe_is_clean():
    assert runtime_config_findings() == []


def test_sabre_parameters_digest_probe_is_clean():
    assert routing_params_findings() == []


def test_design_options_key_coverage_matches_baseline():
    contexts = {f.context for f in design_options_key_findings(ROOT)}
    # The two dispatch fields are the accepted set — each carries a
    # justification in lint-baseline.json.
    assert contexts == {
        "field bus_strategy",
        "field frequency_strategy",
    }


@dataclasses.dataclass(frozen=True)
class _PhantomConfig(RuntimeConfig):
    """RuntimeConfig plus a knob whose digest coverage the subclass controls."""

    phantom_knob: int = 0

    def payload(self):
        data = super().payload()
        # Simulate the bug class: the knob exists but never reaches digest().
        data.pop("phantom_knob")
        return data


@dataclasses.dataclass(frozen=True)
class _CoveredConfig(_PhantomConfig):
    """The same knob, but digested via the inherited asdict payload."""

    def payload(self):
        return RuntimeConfig.payload(self)


def test_synthetic_undigested_field_fails_digest_probe():
    findings = probe_digest_fields(_PhantomConfig)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "REPRO-C301"
    assert finding.context == "field phantom_knob"
    assert "does not reach the content digest" in finding.message


def test_synthetic_digested_field_passes_digest_probe():
    assert probe_digest_fields(_CoveredConfig) == []


def test_doctored_engine_source_fails_key_coverage():
    findings = design_options_key_findings(
        ROOT,
        engine_source="def stage(options):\n    key = (options.alpha,)\n    return key\n",
        options_fields=("alpha", "beta"),
    )
    assert [f.context for f in findings] == ["field beta"]
    assert findings[0].rule == "REPRO-C304"


# -- baseline file mechanics -------------------------------------------------

def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == []


def test_baseline_round_trip(tmp_path):
    entries = [
        BaselineEntry("REPRO-D102", "src/x.py", "stamp = time.time()", "why not"),
        BaselineEntry("REPRO-D101", "src/y.py", "rng = default_rng()", "opt-in"),
    ]
    path = tmp_path / "baseline.json"
    write_baseline(path, entries)
    assert sorted(load_baseline(path), key=BaselineEntry.key) == sorted(
        entries, key=BaselineEntry.key
    )


def test_baseline_rejects_empty_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "format": "repro-lint-baseline", "version": 1,
        "entries": [{"rule": "R", "path": "p", "context": "c", "justification": "  "}],
    }), encoding="utf-8")
    with pytest.raises(ValueError, match="empty justification"):
        load_baseline(path)


def test_baseline_rejects_wrong_format(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}), encoding="utf-8")
    with pytest.raises(ValueError, match="not a repro-lint-baseline"):
        load_baseline(path)


def test_apply_baseline_splits_new_baselined_stale():
    matched = Finding("REPRO-D102", "src/x.py", 3, "msg", "stamp = time.time()")
    unmatched = Finding("REPRO-D101", "src/y.py", 9, "msg", "rng = default_rng()")
    entry = BaselineEntry("REPRO-D102", "src/x.py", "stamp = time.time()", "ok")
    stale_entry = BaselineEntry("REPRO-S202", "src/gone.py", "conn = ...", "old")
    new, baselined, stale = apply_baseline([matched, unmatched], [entry, stale_entry])
    assert new == [unmatched]
    assert baselined == [matched]
    assert stale == [stale_entry]


def test_one_baseline_entry_absorbs_repeats():
    findings = [
        Finding("REPRO-D102", "src/x.py", line, "msg", "stamp = time.time()")
        for line in (3, 8)
    ]
    entry = BaselineEntry("REPRO-D102", "src/x.py", "stamp = time.time()", "ok")
    new, baselined, stale = apply_baseline(findings, [entry])
    assert new == [] and len(baselined) == 2 and stale == []


# -- tree driver, CLI, and the repository's own cleanliness ------------------

def _violation_tree(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    src.mkdir()
    (src / "clocky.py").write_text(
        "import time\n\nSTAMP = time.time()\n", encoding="utf-8"
    )
    return tmp_path


def test_lint_tree_reports_violation(tmp_path):
    report = lint_tree(_violation_tree(tmp_path))
    assert not report.ok
    assert report.checked_files == 1
    assert [f.rule for f in report.new] == ["REPRO-D102"]
    assert report.new[0].context == "STAMP = time.time()"


def test_lint_tree_baseline_accepts_and_flags_stale(tmp_path):
    tree = _violation_tree(tmp_path)
    write_baseline(tree / "lint-baseline.json", [
        BaselineEntry("REPRO-D102", "src/clocky.py", "STAMP = time.time()", "fixture"),
        BaselineEntry("REPRO-D102", "src/gone.py", "old line", "stale on purpose"),
    ])
    report = lint_tree(tree)
    assert report.ok
    assert len(report.baselined) == 1
    assert [e.path for e in report.stale_baseline] == ["src/gone.py"]


def test_runner_exit_codes_and_report_artifact(tmp_path, capsys):
    tree = _violation_tree(tmp_path)
    report_path = tmp_path / "out" / "lint-report.json"
    rc = lint_main(["--root", str(tree), "--report", str(report_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REPRO-D102" in out and "1 new finding(s)" in out
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["format"] == "repro-lint-report"
    assert [row["rule"] for row in payload["new"]] == ["REPRO-D102"]


def test_runner_update_baseline_then_clean(tmp_path, capsys):
    tree = _violation_tree(tmp_path)
    assert lint_main(["--root", str(tree), "--update-baseline"]) == 0
    entries = load_baseline(tree / "lint-baseline.json")
    assert len(entries) == 1 and entries[0].justification.startswith("TODO")
    capsys.readouterr()
    assert lint_main(["--root", str(tree)]) == 0
    assert "0 new finding(s), 1 baselined" in capsys.readouterr().out


def test_runner_invalid_baseline_is_usage_error(tmp_path, capsys):
    tree = _violation_tree(tmp_path)
    (tree / "lint-baseline.json").write_text('{"format": "wrong"}', encoding="utf-8")
    assert lint_main(["--root", str(tree)]) == 2
    assert "repro lint: error:" in capsys.readouterr().err


def test_cli_lint_subcommand_forwards(tmp_path, capsys):
    tree = _violation_tree(tmp_path)
    assert cli_main(["lint", "--root", str(tree)]) == 1
    assert "REPRO-D102" in capsys.readouterr().out
    assert cli_main(["lint", "--list-rules"]) == 0
    assert "REPRO-D101" in capsys.readouterr().out


def test_module_entry_point_subprocess(tmp_path):
    tree = _violation_tree(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(tree)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert result.returncode == 1
    assert "REPRO-D102" in result.stdout


def test_repository_tree_is_lint_clean():
    """The acceptance gate: zero non-baselined findings on the repo itself."""
    report = lint_tree(ROOT)
    assert report.ok, "\n".join(f.render() for f in report.new)
    assert len(report.baselined) == 3
    assert report.stale_baseline == []
    assert report.checked_files > 50
