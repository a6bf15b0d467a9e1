"""Property tests of the C fabrication-noise draw.

``pcg64_normal_fill`` (reached through
:func:`repro.collision.merge_kernel.pcg64_normal` and
:func:`repro.collision.yield_simulator.fabrication_noise`) must give
``np.random.default_rng(seed).normal(0.0, sigma, shape)`` byte for byte:
for any seed (including the 32-bit ``seed_for`` seeds the allocator
uses and integers wider than one PCG64 word), any sigma (including 0)
and any shape (including empty ones and 1 x 1).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collision import merge_kernel
from repro.collision.yield_simulator import fabrication_noise
from repro.utils.rng import seed_for
from strategies import examples, seeds, sigmas_ghz

pytestmark = [
    pytest.mark.property,
    pytest.mark.skipif("native" not in merge_kernel.available_backends(),
                       reason="native library unavailable: no C toolchain"),
]

any_seeds = st.one_of(
    seeds,
    st.integers(0, 2**32 - 1),
    st.tuples(st.text(max_size=8), st.integers(0, 50)).map(lambda parts: seed_for(*parts)),
    st.integers(0, 2**128),
)
any_sigmas = st.one_of(sigmas_ghz, st.just(0.0), st.floats(0.0, 1e3, allow_nan=False))
shapes = st.one_of(
    st.tuples(st.integers(0, 400), st.integers(0, 24)),
    st.sampled_from([(0, 0), (0, 5), (5, 0), (1, 1)]),
)


@contextlib.contextmanager
def backend(name):
    """Run the block under one backend, then restore the previous one."""
    previous = merge_kernel.active_backend()
    merge_kernel.set_backend(name)
    try:
        yield
    finally:
        merge_kernel.set_backend(previous)


def c_draw(seed, sigma, shape):
    """The C kernel's draw from a fresh ``default_rng(seed)``."""
    with backend("native"):
        kernel = merge_kernel.native_kernel("pcg64_normal_fill")
    bit_generator = np.random.default_rng(seed).bit_generator
    return merge_kernel.pcg64_normal(kernel, bit_generator, sigma, shape)


@given(seed=any_seeds, sigma=any_sigmas, shape=shapes)
@example(seed=0, sigma=0.0, shape=(1, 1))
@example(seed=2**32 - 1, sigma=0.03, shape=(0, 7))
@example(seed=seed_for("freq-alloc", 7, 3), sigma=0.03, shape=(300, 0))
@settings(max_examples=examples(200))
def test_c_draw_is_numpys_draw(seed, sigma, shape):
    expected = np.random.default_rng(seed).normal(0.0, sigma, shape)
    drawn = c_draw(seed, sigma, shape)
    assert drawn.shape == expected.shape
    assert drawn.dtype == expected.dtype
    assert drawn.tobytes() == expected.tobytes()


@given(seed=any_seeds, sigma=any_sigmas, shape=shapes,
       name=st.sampled_from(["native", "numpy"]))
@settings(max_examples=examples(100))
def test_fabrication_noise_is_numpys_draw_on_both_backends(seed, sigma, shape, name):
    with backend(name):
        drawn = fabrication_noise(seed, sigma, shape)
    expected = np.random.default_rng(seed).normal(0.0, sigma, shape)
    assert drawn.tobytes() == expected.tobytes()
