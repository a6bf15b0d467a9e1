"""Per-layer span tracing of one ``repro-design sweep``, installed from outside.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py <trace-dir> sweep <sweep arguments...>

The script imports the program, replaces the public entry points of each
layer with wrappers that record a span (name, start, end, thread CPU
time, parent) around every call, and runs ``repro.cli.main`` on the
given arguments.  Spans stay in memory.  The root process writes its
spans when the sweep returns; a forked sweep worker writes the spans of
each task when that task finishes, because pool workers are terminated
rather than shut down.  Every process appends to
``<trace-dir>/spans-<pid>.jsonl``, one JSON list of spans per line, where
a span's parent is an index into the same line.  ``meta.json`` names the
root process.

The wrappers only observe: every wrapped call returns what the original
returns, so the sweep's ``--output`` report is byte-identical to an
untraced run's.
"""

import time

_STARTED_NS = time.perf_counter_ns()
_STARTED_CPU_NS = time.thread_time_ns()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: A span: [name, start_ns, end_ns, thread_cpu_ns, parent_index, detail].
NAME, START, END, CPU, PARENT, DETAIL = range(6)


class Recorder:
    """In-memory span store of one process; one stack, one thread.

    The sweep runs every traced layer on its main thread (the native
    screening kernel's own threads never call back into Python), so a
    single stack gives each span its parent.  A nested call into the
    same layer is folded into the outer span, so a layer's call count is
    the number of times the rest of the program entered it.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.spans = []
        self.stack = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """A forked worker starts with no spans and an empty stack."""
        self.spans = []
        self.stack = []

    def wrap(self, name, func, detail=None):
        """``func`` wrapped in a span named ``name``.

        ``detail(args)`` may return one JSON value kept with the span
        (a circuit name, a trial count).
        """
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder.stack
            if stack and recorder.spans[stack[-1]][NAME] == name:
                return func(*args, **kwargs)
            span = [name, 0, 0, 0, stack[-1] if stack else -1,
                    detail(args) if detail else None]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            cpu = time.thread_time_ns()
            span[START] = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                span[CPU] = time.thread_time_ns() - cpu
                stack.pop()

        return traced

    def wrap_task(self, name, func):
        """A sweep task wrapper that also flushes a worker's spans.

        The wrapper keeps the task function's module and qualified name,
        so the pool pickles it by reference like the original.
        """
        traced = self.wrap(name, func)
        recorder = self

        @functools.wraps(func)
        def task(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != recorder.root_pid and not recorder.stack:
                    recorder.flush()

        return task

    def flush(self) -> None:
        """Append this process's spans as one batch and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``.

    Modules that did ``from x import f`` hold their own reference, so
    patching the defining module alone would miss their calls.
    """
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap the entry points of every layer the benchmark attributes time to."""
    import repro.benchmarks.library as library
    import repro.cli as cli
    import repro.collision.screening as screening
    import repro.evaluation.parallel as parallel
    import repro.mapping.router as router
    import repro.profiling.profiler as profiler
    from repro.collision.yield_simulator import YieldSimulator
    from repro.design.engine import DesignEngine
    from repro.mapping.engine import RoutingEngine
    from repro.persistence.sharded import ShardedStore
    from repro.persistence.sqlite import SqliteStore
    from repro.persistence.store import SingleFileStore

    functions = (
        (library.get_benchmark, "benchmarks.get_benchmark", None),
        (profiler.profile_circuit, "profiling.profile_circuit",
         lambda args: args[0].name),
        (screening.screen_candidate_bounds_batch, "collision.screening", None),
        (router.verify_routing, "mapping.verify_routing", None),
    )
    for func, name, detail in functions:
        _replace_everywhere(func, recorder.wrap(name, func, detail))

    methods = (
        (DesignEngine, "layout_for", "design.layout", None),
        (DesignEngine, "bus_selection", "design.bus_selection", None),
        (DesignEngine, "frequencies_for", "design.frequency_allocation", None),
        (YieldSimulator, "estimate", "collision.yield_simulator",
         lambda args: args[0].trials),
        (RoutingEngine, "route", "mapping.route", None),
        (parallel.SweepExecutor, "enumerate_points",
         "evaluation.parallel.generate_phase", None),
        (parallel.SweepExecutor, "evaluate",
         "evaluation.parallel.evaluate_phase", None),
    )
    for store in (SingleFileStore, ShardedStore, SqliteStore):
        methods += (
            (store, "read", "persistence.read", None),
            (store, "union_merge", "persistence.merge", None),
        )
    for owner, attr, name, detail in methods:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), detail))

    for attr in ("_generate_task", "_evaluate_task"):
        setattr(parallel, attr,
                recorder.wrap_task("evaluation.task", getattr(parallel, attr)))

    for attr in ("_sweep_report", "_print_result", "_write_metrics",
                 "atomic_write_text"):
        setattr(cli, attr, recorder.wrap("report", getattr(cli, attr)))


def main(argv) -> int:
    out_dir, sweep_argv = argv[0], argv[1:]
    recorder = Recorder(out_dir)
    import repro.cli

    recorder.spans.append(["startup.import", _STARTED_NS, time.perf_counter_ns(),
                           time.thread_time_ns() - _STARTED_CPU_NS, -1, None])
    install(recorder)
    code = repro.cli.main(sweep_argv)
    recorder.flush()
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump({"root_pid": recorder.root_pid}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
