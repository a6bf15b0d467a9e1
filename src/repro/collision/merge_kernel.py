"""The native library's loader and the backend switch.

``native.c``, shipped next to this module, holds the four C kernels of
the ``native`` backend; each is the twin of a Python/numpy reference
that stays the ``numpy`` backend and the no-toolchain path:

* ``region_failure_counts`` counts every Algorithm 3 candidate's failed
  trials on one local region
  (:func:`repro.collision.screening.screen_candidate_bounds_batch`);
* ``sabre_pass`` routes (:class:`~repro.mapping.sabre.SabreRouter`);
* ``chip_survivors`` counts full-chip yield survivors
  (:meth:`~repro.collision.yield_simulator.YieldSimulator.estimate_from_arrays`);
* ``pcg64_normal_fill`` draws numpy's normal stream
  (:func:`~repro.collision.yield_simulator.fabrication_noise`, through
  :func:`pcg64_normal`).

The first :func:`available_backends` call compiles the file once with
the system ``cc`` into a module-local ``_native`` directory, keyed by a
digest of its bytes, and loads it through ``ctypes``; no third-party
dependency is ever required.  :func:`native_kernel` hands a kernel out
only while ``native`` is the active backend.

``REPRO_SCREENING_BACKEND=native|numpy`` (default ``auto``: ``native``
when a C toolchain is available, ``numpy`` otherwise) picks the active
backend, and the supervisor's crash demotion to ``numpy`` switches it
too.  Both backends give the same bytes.  A kernel declines, and its
reference runs, when an array is not C-contiguous with the dtype it
reads or an index lies outside ``[0, n)`` (:func:`c_readable`).  The
normal draw is used only after :func:`normal_fill_verified` compared
one fixed-seed draw with numpy's, once per process and never at library
load.

The module keeps its name, which predates the other kernels (it used to
hold an interval-merge kernel), because perfbench's probe imports
:func:`available_backends` and :func:`active_backend` from it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

_ENV_VAR = "REPRO_SCREENING_BACKEND"
_BACKENDS = ("numpy", "native")

#: The C source of every kernel, shipped as package data.
_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")

_active_backend: Optional[str] = None
_native_lib: Optional[ctypes.CDLL] = None
_native_failed = False


def _count_fallback(name: str) -> None:
    """Count a silent backend degradation in the metrics registry.

    Lazy import: this module must stay importable with zero runtime-layer
    dependencies (the property suite loads it standalone), and the
    counters only matter on the cold degradation paths.
    """
    from repro.runtime.metrics import global_metrics

    global_metrics().increment(name)


_POINTER = ctypes.c_void_p
_I64 = ctypes.c_int64
_DOUBLE = ctypes.c_double
#: Return and argument types of each kernel, grouped like its C signature.
_SIGNATURES: Dict[str, Tuple[type, List[type]]] = {
    # candidates, their count, scanned column, base frequencies, noise,
    # trials, qubits, pairs, triples, delta and the six thresholds, counts
    "region_failure_counts": (ctypes.c_int, [
        _POINTER, _I64, _I64, _POINTER, _POINTER, _I64, _I64,
        _POINTER, _I64, _POINTER, _I64, *[_DOUBLE] * 7, _POINTER,
    ]),
    "sabre_pass": (ctypes.c_int, [
        # router tables
        _I64, _POINTER, _I64, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER,
        _POINTER, _POINTER,
        # pack
        _I64, _I64, _I64, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _POINTER,
        _I64,
        # parameters
        _I64, _DOUBLE, _DOUBLE, _I64, _I64, _I64,
        # mapping
        _POINTER, _POINTER, _POINTER,
        # event log and results
        ctypes.c_int, _POINTER, _I64, _POINTER,
    ]),
    # frequencies, noise, trials, qubits, pairs, triples, then delta and
    # the six thresholds
    "chip_survivors": (_I64, [
        _POINTER, _POINTER, _I64, _I64, _POINTER, _I64, _POINTER, _I64,
        *[_DOUBLE] * 7,
    ]),
    # the four state words, sigma, the output array, its size and the
    # slow-path counters (or NULL)
    "pcg64_normal_fill": (_I64, [_POINTER, _DOUBLE, _POINTER, _I64, _POINTER]),
}


def _build_native() -> Optional[ctypes.CDLL]:
    """Compile and load the C library; None when no toolchain cooperates.

    The shared object is cached in a module-local ``_native`` directory
    keyed by the source digest, so each machine compiles at most once
    per kernel version.  Every failure mode (no compiler, sandboxed build
    dir, missing ctypes symbols) degrades to the numpy backend.
    """
    global _native_failed
    if _native_failed:
        return None
    try:
        with open(_SOURCE_PATH, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()[:16]
        build_dir = os.path.join(os.path.dirname(_SOURCE_PATH), "_native")
        library = os.path.join(build_dir, f"repro_native_{digest}.so")
        if not os.path.exists(library):
            os.makedirs(build_dir, exist_ok=True)
            # -ffp-contract=off: every kernel must round each intermediate
            # exactly like numpy or Python — FMA contraction (the gcc
            # default at -O3 on FMA-baseline targets) could move a
            # collision comparison or a routing score tie and break
            # cross-backend identity.  Tuned -march=native first; plain
            # -O3 for compilers without it.
            flag_sets = (
                ["-O3", "-march=native", "-ffp-contract=off"],
                # No bare -O3 fallback: a compiler that cannot disable FP
                # contraction must not produce this library at all (the
                # numpy backend takes over instead).
                ["-O3", "-ffp-contract=off"],
            )
            for flags in flag_sets:
                build = subprocess.run(
                    ["cc", *flags, "-shared", "-fPIC", "-o", library, _SOURCE_PATH,
                     "-lm"],
                    capture_output=True, timeout=120,
                )
                if build.returncode == 0:
                    break
            else:
                build.check_returncode()
        lib = ctypes.CDLL(library)
        for name, (restype, argtypes) in _SIGNATURES.items():
            kernel = getattr(lib, name)
            kernel.restype = restype
            kernel.argtypes = argtypes
        return lib
    except Exception:
        _native_failed = True
        return None


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """Backends that can run here (``native`` only with a C toolchain)."""
    names = ["numpy"]
    global _native_lib
    if _native_lib is None and not _native_failed:
        _native_lib = _build_native()
    if _native_lib is not None:
        names.append("native")
    return tuple(names)


def native_kernel(name: str) -> Optional[Callable[..., int]]:
    """The C kernel ``name`` while ``native`` is the active backend, else None.

    ``name`` is one of the C functions of ``native.c``.  Callers run
    their reference whenever this is None, so the backend switch and the
    supervisor's demotion to ``numpy`` govern every kernel alike.
    """
    if active_backend() != "native" or _native_lib is None:
        return None
    kernel: Callable[..., int] = getattr(_native_lib, name)
    return kernel


def c_readable(
    n: int, floats: Sequence[np.ndarray], indices: Sequence[np.ndarray]
) -> bool:
    """Whether a C kernel may read these arrays by address.

    Every float array must be C-contiguous float64 and every index array
    C-contiguous int64 with its entries in ``[0, n)``: numpy wraps
    negative indices and raises on the rest, where C would read out of
    bounds.
    """
    if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in floats):
        return False
    if not all(a.dtype == np.int64 and a.flags.c_contiguous for a in indices):
        return False
    return all(not a.size or (a.min() >= 0 and a.max() < n) for a in indices)


_MASK64 = (1 << 64) - 1


def pcg64_normal(
    kernel: Callable[..., int],
    bit_generator: np.random.PCG64,
    sigma: float,
    shape: Union[int, Tuple[int, ...]],
    slow: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``Generator(bit_generator).normal(0.0, sigma, shape)``, drawn by ``kernel``.

    The kernel starts from the generator's state but does not advance
    it, so only a generator that draws nothing afterwards may be passed.
    ``slow``, a C-contiguous int64 array of two, accumulates how often
    the ziggurat took its idx-0 tail and its wedge test.
    """
    state = bit_generator.state["state"]
    words = np.array(
        [state["state"] >> 64, state["state"] & _MASK64,
         state["inc"] >> 64, state["inc"] & _MASK64],
        dtype=np.uint64,
    )
    out = np.empty(shape, dtype=np.float64)
    kernel(words.ctypes.data, float(sigma), out.ctypes.data, out.size,
           None if slow is None else slow.ctypes.data)
    return out


#: The self-check's fixed draw: 2,500 values from seed 0 cross one
#: refill of the kernel's raw buffer and take both slow paths (the idx-0
#: tail twice and the wedge test 28 times).
_NORMAL_CHECK_SEED = 0
_NORMAL_CHECK_SIZE = 2500
_normal_verified: Optional[bool] = None


def normal_fill_verified() -> bool:
    """Whether the C normal draw reproduced numpy's on a fixed seed.

    Checked once per process, at the first draw that asks and never at
    library load, by comparing the bytes of one fixed-seed draw; it
    costs well under a millisecond.  False also without the library.
    """
    global _normal_verified
    if _normal_verified is None:
        _normal_verified = False
        if _native_lib is not None:
            rng = np.random.default_rng(_NORMAL_CHECK_SEED)
            slow = np.zeros(2, dtype=np.int64)
            drawn = pcg64_normal(
                _native_lib.pcg64_normal_fill, rng.bit_generator, 0.03,
                _NORMAL_CHECK_SIZE, slow,
            )
            expected = rng.normal(0.0, 0.03, _NORMAL_CHECK_SIZE)
            _normal_verified = drawn.tobytes() == expected.tobytes() and bool(slow.all())
    return _normal_verified


def _resolve_default() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if requested in _BACKENDS:
        if requested == "native" and "native" not in available_backends():
            _count_fallback("screening/backend_fallbacks")
            warnings.warn(
                f"{_ENV_VAR}=native requested but no C toolchain is available; "
                "falling back to the numpy backend (results are identical)",
                RuntimeWarning, stacklevel=3,
            )
            return "numpy"
        return requested
    if requested and requested != "auto":
        warnings.warn(
            f"unknown {_ENV_VAR}={requested!r}; expected one of "
            f"{_BACKENDS + ('auto',)}, using auto selection",
            RuntimeWarning, stacklevel=3,
        )
    return "native" if "native" in available_backends() else "numpy"


def active_backend() -> str:
    """The active backend, ``native`` or ``numpy`` (resolved lazily).

    ``native`` ranks Algorithm 3 candidates, routes, draws the noise and
    counts yield survivors in C; ``numpy`` runs the Python/numpy
    references.  Both give identical results.
    """
    global _active_backend
    if _active_backend is None:
        _active_backend = _resolve_default()
    return _active_backend


def set_backend(name: Optional[str]) -> str:
    """Force a backend (tests/benchmarks); ``None`` re-resolves the default.

    Returns the backend now active.  Selecting ``native`` without a
    toolchain raises — the silent-fallback path is only for the
    environment-variable default, where crashing would break the
    no-toolchain-required guarantee.
    """
    global _active_backend
    if name is None:
        _active_backend = None
        return active_backend()
    name = name.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(f"unknown screening backend {name!r} (known: {_BACKENDS})")
    if name == "native" and "native" not in available_backends():
        raise ValueError("native screening backend unavailable: no C toolchain")
    _active_backend = name
    return _active_backend
