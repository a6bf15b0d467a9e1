"""End-to-end benchmark of the ``repro-design sweep`` design-space exploration.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-serial --seed 0 --seconds 18 --trace 0

The harness drives the public CLI as a batch job: a closed loop of one
``python3 -m repro.cli sweep`` invocation at a time, each in a fresh
interpreter, over one fixed grid (five benchmarks x the five Figure 10
configurations at 10,000 Monte Carlo trials).  The seed reaches the
program only as a ``--runtime-config`` file setting ``yield_seed`` and
``random_bus_seeds``; seed 0 is the program's default configuration.

Workloads:

* ``cold-serial``: ``--jobs 1``, no stores.
* ``cold-parallel``: ``--jobs nproc`` (at least 2), one screening and one
  BLAS thread per worker.
* ``warm-rerun``: ``--jobs 1`` against design and routing sqlite stores
  that an untimed sweep filled first.
* ``checkpointed``: ``--jobs 1`` writing a fresh ``--checkpoint`` store.

With ``--trace 0`` the last stdout line reports ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` (medians over the invocations) and ``setup_s`` (median
over fresh-interpreter set-up probes, see ``probe.py``).  With
``--trace 1`` it also runs the sweep once under ``tracer.py`` and reports
each layer's calls and self time instead.  Every report must be
byte-identical to the reference for its seed; an invocation that exits
non-zero or writes other bytes counts as failed.

Scratch files live in ``.bench_build/perfbench`` of the checkout.
``--grid``, ``--trials`` and ``--expect-sha256`` exist for ``smoke.py``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

GRID = ("sym6_145", "qft_16", "ising_model_16", "rd84_142", "UCCSD_ansatz_8")
TRIALS = 10_000
DEFAULT_SEED = 0
#: SHA-256 of the full grid's ``--output`` report at the default seed.
PINNED_SHA256 = "e618ebea8ec9806f565b00873c5f949329664f2286eef5db3f84111094b2f0a0"
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "cold-serial": {},
    "cold-parallel": {"parallel": True},
    "warm-rerun": {"stores": True},
    "checkpointed": {"checkpoint": True},
}

#: Environment of every ``cold-parallel`` process: workers x threads <= nproc.
PARALLEL_PINS = {
    "REPRO_SCREENING_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def runtime_config(seed):
    """The only inputs the seed changes; seed 0 is the program default."""
    return {
        "yield_seed": 7 + seed,
        "random_bus_seeds": [1 + 5 * seed + k for k in range(5)],
    }


def source_digest(root):
    """SHA-256 over the program's sources, for comparing result files."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision(root):
    if not (root / ".git").exists():
        return None
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def nearest_rank(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


class Child:
    """One finished child process: exit code and resource usage of its tree."""

    def __init__(self, argv, env, cwd, log_dir):
        log_dir.mkdir(parents=True, exist_ok=True)
        stdout_path, stderr_path = log_dir / "stdout", log_dir / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            # Its own process group, so a timeout also stops the pool workers.
            process = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                       start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                    (process.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            self.wall_s = time.perf_counter() - started
        process.returncode = self.code = os.waitstatus_to_exitcode(status)
        # wait4 folds in every waited-for descendant (the pool workers):
        # CPU time sums over the tree, ru_maxrss is its largest process.
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_text(errors="replace")
        self.stderr = stderr_path.read_text(errors="replace")


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.workload = WORKLOADS[args.workload]
        self.grid = tuple(args.grid.split(",")) if args.grid else GRID
        self.trials = args.trials
        self.nproc = len(os.sched_getaffinity(0))
        self.jobs = max(2, self.nproc) if self.workload.get("parallel") else 1
        self.work = root / ".bench_build" / "perfbench"
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.source = source_digest(root)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0
        self.reference = args.expect_sha256
        if self.reference is None and self.grid == GRID and self.trials == TRIALS \
                and args.seed == DEFAULT_SEED:
            self.reference = PINNED_SHA256
        # Other seeds: the first report any workload wrote for this seed
        # from these sources is the reference of every later run.
        self.reference_file = self.work / "references" / hashlib.sha256(
            json.dumps([self.source, self.grid, self.trials, args.seed]).encode()
        ).hexdigest()
        if self.reference is None and self.reference_file.exists():
            self.reference = self.reference_file.read_text().strip()

    # -- processes --------------------------------------------------------------

    def env(self, parallel):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"}
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONHASHSEED="0",
            # Bytecode of every imported module is cached in the scratch
            # directory, never in src/; the untimed first probe fills it.
            PYTHONPYCACHEPREFIX=str(self.work / "pycache"),
        )
        if parallel:
            env.update(PARALLEL_PINS)
        return env

    def fresh_dir(self, label):
        self.count += 1
        path = self.run_dir / f"{self.count:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def sweep_args(self, directory, jobs):
        args = ["sweep", *self.grid, "--jobs", str(jobs),
                "--trials", str(self.trials),
                "--runtime-config", str(self.run_dir / "runtime-config.json"),
                "--output", str(directory / "report.json")]
        if self.workload.get("stores"):
            stores = self.run_dir / "stores"
            args += ["--design-cache", str(stores / "design.sqlite"),
                     "--routing-cache", str(stores / "routing.sqlite")]
        if self.workload.get("checkpoint"):
            args += ["--checkpoint", str(directory / "checkpoint.sqlite")]
        return args

    def spawn(self, prefix, args, directory, parallel):
        argv = [sys.executable, *prefix, *args]
        return Child(argv, self.env(parallel), self.root, directory / "logs")

    def fail(self, message, child=None):
        self.failed += 1
        detail = f": {child.stderr.strip().splitlines()[-1]}" \
            if child is not None and child.stderr.strip() else ""
        self.problems.append(message + detail)

    # -- invocations ------------------------------------------------------------

    def sweep(self, label, prefix=("-m", "repro.cli"), extra=(), jobs=None):
        """One sweep invocation with its report checked against the reference."""
        directory = self.fresh_dir(label)
        jobs = self.jobs if jobs is None else jobs
        child = self.spawn(list(prefix), self.sweep_args(directory, jobs) + list(extra),
                         directory, parallel=jobs > 1)
        child.directory = directory
        self.attempted += 1
        report = directory / "report.json"
        if child.code != 0 or not report.exists():
            self.fail(f"{label}: exit code {child.code}", child)
            child.ok = False
            return child
        digest = file_sha256(report)
        if self.reference is None:
            self.reference = digest
            self.reference_file.parent.mkdir(parents=True, exist_ok=True)
            self.reference_file.write_text(digest + "\n")
        child.ok = digest == self.reference
        if not child.ok:
            self.fail(f"{label}: report sha256 {digest} != expected {self.reference}")
        return child

    def probe(self, label):
        directory = self.fresh_dir(label)
        child = self.spawn([str(self.root / "perfbench" / "probe.py")],
                         self.sweep_args(directory, self.jobs), directory,
                         parallel=self.jobs > 1)
        self.attempted += 1
        try:
            child.phases = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            child.phases = None
        if child.code != 0 or child.phases is None:
            self.fail(f"{label}: exit code {child.code}", child)
        shutil.rmtree(directory)
        return child

    # -- the run ------------------------------------------------------------------

    def execute(self):
        self.run_dir.mkdir(parents=True)
        (self.run_dir / "runtime-config.json").write_text(
            json.dumps(runtime_config(self.args.seed), indent=2, sort_keys=True) + "\n"
        )
        # Untimed set-up: the first probe compiles a missing or stale
        # screening kernel and fills the bytecode cache; warm-rerun's
        # stores are filled by one sweep at full parallelism.
        first = self.probe("prepare")
        if self.workload.get("stores"):
            self.sweep("fill", jobs=max(2, self.nproc))
        # Half the set-up samples before the timed loop and half after it,
        # so one slow spell of the machine cannot set the whole median.
        probes = [self.probe("setup") for _ in range(SETUP_SAMPLES // 2)]

        timed = []
        started = time.perf_counter()
        while True:
            child = self.sweep("timed")
            shutil.rmtree(child.directory)
            timed.append(child)
            if time.perf_counter() - started >= self.args.seconds:
                break
        probes += [self.probe("setup") for _ in range(SETUP_SAMPLES - len(probes))]
        good = [child for child in timed if child.ok] or timed

        metrics = {
            "wall_s": statistics.median(child.wall_s for child in good),
            "cpu_s": statistics.median(child.cpu_s for child in good),
            "peak_rss_mb": statistics.median(child.peak_rss_mb for child in good),
            "setup_s": statistics.median(child.wall_s for child in probes),
        }
        if self.args.trace:
            metrics = self.traced(metrics["wall_s"], probes)
        samples = {
            "wall_s": [child.wall_s for child in timed],
            "setup_s": [child.wall_s for child in probes],
        }
        return metrics, self.manifest(first, samples)

    def traced(self, untraced_wall_s, probes):
        """Run the sweep once under the tracer and attribute its time."""
        trace_dir = self.run_dir / "trace"
        trace_dir.mkdir()
        child = self.sweep(
            "traced", prefix=(str(self.root / "perfbench" / "tracer.py"), str(trace_dir)),
            extra=["--metrics-out", str(self.run_dir / "metrics.json")],
        )
        if child.code != 0:
            raise SystemExit(f"perfbench: traced sweep failed: {child.stderr[-2000:]}")
        report = json.loads((child.directory / "report.json").read_text())
        program = json.loads((self.run_dir / "metrics.json").read_text())
        phases = [probe.phases for probe in probes if probe.phases]
        metrics = {
            f"startup.{phase}_s": statistics.median(p[f"{phase}_s"] for p in phases)
            for phase in ("import", "session", "kernel")
        }
        metrics.update(attribute(trace_dir, program, report, child.wall_s, self.jobs))
        metrics["trace.overhead_frac"] = child.wall_s / untraced_wall_s - 1.0
        if metrics["trace.unattributed_frac"] < 0:
            self.problems.append("self times sum past the traced wall time")
        return metrics

    def manifest(self, probe, samples):
        phases = probe.phases or {}
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "runtime_config": runtime_config(self.args.seed),
            "grid": list(self.grid),
            "trials": self.trials,
            "seconds": self.args.seconds,
            "samples": samples,
            "nproc": self.nproc,
            "jobs": self.jobs,
            "thread_pins": PARALLEL_PINS if self.jobs > 1 else {},
            "screening_backend": phases.get("backend"),
            "screening_backends": phases.get("backends"),
            "python": phases.get("python"),
            "numpy": phases.get("numpy"),
            "git_revision": git_revision(self.root),
            "source_sha256": self.source,
            "report_sha256": self.reference,
        }


def attribute(trace_dir, program, report, wall_s, jobs):
    """Per-layer metrics from the spans of one traced sweep.

    A span's self time is its duration minus its direct children's; the
    spans of one process nest, so self times never overlap.  Sums run
    over every process of the sweep.  ``trace.unattributed_frac`` is the
    share of the root process's wall time outside every layer's self
    time: interpreter start, argument parsing, and glue between layers.
    """
    root_pid = json.loads((trace_dir / "meta.json").read_text())["root_pid"]
    layers = defaultdict(lambda: {"calls": 0, "self_ns": 0, "durations_ns": [],
                                  "wait_ns": 0, "details": []})
    root_self_ns = 0
    worker_busy_ns = 0
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        for line in path.read_text().splitlines():
            batch = json.loads(line)
            children_ns = [0] * len(batch)
            for name, start, end, cpu, parent, detail in batch:
                if parent >= 0:
                    children_ns[parent] += end - start
            for index, (name, start, end, cpu, parent, detail) in enumerate(batch):
                layer = layers[name]
                self_ns = end - start - children_ns[index]
                layer["calls"] += 1
                layer["self_ns"] += self_ns
                layer["durations_ns"].append(end - start)
                layer["wait_ns"] += end - start - cpu
                layer["details"].append(detail)
                if pid == root_pid:
                    root_self_ns += self_ns
                elif name == "evaluation.task" and parent < 0:
                    worker_busy_ns += end - start

    def calls(name):
        return layers[name]["calls"]

    def self_s(name):
        return layers[name]["self_ns"] / 1e9

    def quantile_ms(name, fraction):
        return nearest_rank(layers[name]["durations_ns"], fraction) / 1e6

    counters = program.get("counters", {})

    def hit_rate(prefix):
        hits = counters.get(f"{prefix}/hits", 0)
        lookups = hits + counters.get(f"{prefix}/misses", 0)
        return hits / lookups if lookups else 0.0

    metrics = {}
    for name in ("benchmarks.get_benchmark", "profiling.profile_circuit",
                 "design.frequency_allocation", "collision.yield_simulator",
                 "mapping.route", "persistence.read", "persistence.merge"):
        metrics[f"{name}.calls"] = calls(name)
    for name in ("benchmarks.get_benchmark", "profiling.profile_circuit",
                 "design.layout", "design.bus_selection",
                 "design.frequency_allocation", "collision.screening",
                 "collision.yield_simulator", "mapping.route",
                 "mapping.verify_routing", "persistence.read",
                 "persistence.merge", "report"):
        metrics[f"{name}.self_s"] = self_s(name)
    circuits = set(layers["profiling.profile_circuit"]["details"])
    metrics["profiling.profile_circuit.calls_per_circuit"] = (
        calls("profiling.profile_circuit") / len(circuits) if circuits else 0.0
    )
    metrics["design.frequency_allocation.hit_rate"] = hit_rate("design/frequency")
    metrics["collision.screening.prune_fraction"] = program.get("derived", {}).get(
        "screening/prune_fraction", 0.0)
    yield_self = self_s("collision.yield_simulator")
    metrics["collision.yield_simulator.trials_per_s"] = (
        sum(layers["collision.yield_simulator"]["details"]) / yield_self
        if yield_self else 0.0
    )
    metrics["mapping.route.hit_rate"] = hit_rate("routing/cache")
    for name in ("mapping.route", "persistence.merge"):
        metrics[f"{name}.p50_ms"] = quantile_ms(name, 0.5)
        metrics[f"{name}.p90_ms"] = quantile_ms(name, 0.9)
    points = [point for rows in report.values() for point in rows]
    metrics["mapping.swaps"] = sum(point["num_swaps"] for point in points)
    metrics["sweep.points"] = len(points)
    metrics["persistence.merge.wait_s"] = layers["persistence.merge"]["wait_ns"] / 1e9

    # The phase spans wait on a worker pool only when the sweep forks;
    # a serial sweep runs its tasks inline and has no pool to attribute.
    generate_s = evaluate_s = busy_s = idle = 0.0
    if jobs > 1:
        generate_s = sum(layers["evaluation.parallel.generate_phase"]["durations_ns"]) / 1e9
        evaluate_s = sum(layers["evaluation.parallel.evaluate_phase"]["durations_ns"]) / 1e9
        busy_s = worker_busy_ns / 1e9
        idle = 1.0 - busy_s / (jobs * (generate_s + evaluate_s))
    metrics["evaluation.parallel.generate_phase_s"] = generate_s
    metrics["evaluation.parallel.evaluate_phase_s"] = evaluate_s
    metrics["evaluation.parallel.worker_busy_s"] = busy_s
    metrics["evaluation.parallel.idle_frac"] = idle
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_frac"] = 1.0 - root_self_ns / 1e9 / wall_s
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", default=None,
                        help="comma-separated benchmarks (default: the fixed grid)")
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--expect-sha256", default=None,
                        help="required report digest (default: pinned or first seen)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    bench = Bench(args, root)
    try:
        metrics, manifest = bench.execute()
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name:<46} {metrics[name]:>14.6f} {unit}")
    print(f"{'failed_frac':<46} {bench.failed / bench.attempted:>14.6f} ratio"
          f"  ({bench.failed}/{bench.attempted} invocations)")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
