"""Set-up probe: what a fresh interpreter pays before a sweep's first task.

Usage::

    PYTHONPATH=src python3 perfbench/probe.py sweep <sweep arguments...>

The probe imports ``repro.cli``, resolves the invocation's
``RuntimeConfig`` exactly as the CLI does, gets the process session,
touches its design engine, routing engine and checkpoint (which loads
the invocation's persisted stores), and loads the screening kernel
through ``merge_kernel.available_backends()``.  It prints one JSON line
with the duration of each phase and the versions the run manifest needs.
The harness times the whole process from spawn to exit as one
``setup_s`` sample.
"""

import json
import sys
import time


def main(argv):
    started = time.perf_counter()
    import repro.cli as cli

    imported = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    config = cli._runtime_config(args)
    from repro.runtime.session import session_for

    session = session_for(config)
    session.design_engine
    session.routing_engine
    session.checkpoint
    sessioned = time.perf_counter()
    from repro.collision import merge_kernel

    backends = merge_kernel.available_backends()
    loaded = time.perf_counter()

    import numpy

    print(json.dumps({
        "import_s": imported - started,
        "session_s": sessioned - imported,
        "kernel_s": loaded - sessioned,
        "backends": list(backends),
        "backend": merge_kernel.active_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
