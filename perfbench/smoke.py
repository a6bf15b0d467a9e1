"""Smoke test of the benchmark itself, on a tiny grid (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

It runs ``run.py`` on ``sym6_145`` at 200 trials and checks that:

* every metric ``BENCHMARK.json`` names prints with its unit, untraced
  and traced, on every workload;
* the layers' self times never sum past the traced wall time;
* a corrupted expected report digest is counted as a failure;
* a directory holding only ``BENCHMARK.json`` and the benchmark's files
  makes the harness exit non-zero without printing a result.

Exits 0 when every check holds and prints each failed check otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

TINY = ["--seed", "0", "--seconds", "1", "--grid", "sym6_145", "--trials", "200"]
SERIAL = ("cold-serial", "warm-rerun", "checkpointed")


def harness(cwd, *args):
    """Run the harness; return its exit code and the parsed last stdout line."""
    result = subprocess.run([sys.executable, "perfbench/run.py", *args],
                            cwd=cwd, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        return result.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return result.returncode, None


def check_units(result, declared, label, errors):
    if result is None:
        errors.append(f"{label}: no result line")
        return
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        if value is None or value.get("unit") != metric["unit"]:
            errors.append(f"{label}: {metric['name']} missing or not in {metric['unit']}")
    if not result["correct"] or result["failed"]:
        errors.append(f"{label}: run reported failures")


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = []

    code, result = harness(root, "--workload", "cold-serial", "--trace", "0", *TINY)
    check_units(result, spec["end_to_end"], "cold-serial untraced", errors)

    for workload in (item["name"] for item in spec["workloads"]):
        code, result = harness(root, "--workload", workload, "--trace", "1", *TINY)
        label = f"{workload} traced"
        check_units(result, spec["per_layer"], label, errors)
        if result is None:
            continue
        metrics = {name: item["value"] for name, item in result["metrics"].items()}
        if not 0.0 <= metrics["trace.unattributed_frac"] <= 1.0:
            errors.append(f"{label}: root-process self times exceed the traced wall time")
        if workload in SERIAL:
            self_s = sum(value for name, value in metrics.items()
                         if name.endswith(".self_s"))
            if self_s > metrics["trace.wall_s"]:
                errors.append(f"{label}: self times sum to {self_s} s, past the "
                              f"traced wall time of {metrics['trace.wall_s']} s")

    code, result = harness(root, "--workload", "cold-serial", "--trace", "0",
                           "--expect-sha256", "0" * 64, *TINY)
    if result is None or result["correct"] or result["failed"] < 1:
        errors.append("a corrupted expected digest was not counted as a failure")

    bare = root / ".bench_build" / "perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = harness(bare, "--workload", "cold-serial", "--trace", "0", *TINY)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        errors.append("the harness did not refuse a directory without the program")

    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
