"""Offset-refinement micro-benchmarks: ResidualEngine vs the scalar loop.

Algm. 1's sub-bin refinement is the decode hot path: the scalar reference
(`refine_offsets_scalar`) rebuilds the tone matrix and runs an SVD
``lstsq`` per golden-section trial, while the engine path scores each
bracket round as one batched Schur-complement solve over cached tone
columns.  These benchmarks quantify the gap and assert a >=5x floor for
K>=2 users.
"""

import time

import numpy as np
import pytest
from benchmarks.perf import perf_gate

from repro.core.chanest import tone_matrix
from repro.core.engine import ResidualEngine
from repro.core.offsets import refine_offsets_scalar

N_SAMPLES = 128
N_WINDOWS = 7


def _collision(rng: np.random.Generator, n_users: int):
    """Synthetic preamble windows with ``n_users`` well-separated tones."""
    positions = np.sort(rng.uniform(5.0, N_SAMPLES - 8.0, n_users))
    while n_users > 1 and float(np.min(np.diff(positions))) < 2.0:
        positions = np.sort(rng.uniform(5.0, N_SAMPLES - 8.0, n_users))
    channels = rng.normal(size=(N_WINDOWS, n_users)) + 1j * rng.normal(
        size=(N_WINDOWS, n_users)
    )
    windows = (tone_matrix(positions, N_SAMPLES) @ channels.T).T
    windows = windows + 0.1 * (
        rng.normal(size=(N_WINDOWS, N_SAMPLES))
        + 1j * rng.normal(size=(N_WINDOWS, N_SAMPLES))
    )
    coarse = positions + rng.uniform(-0.2, 0.2, n_users)
    return windows, coarse


def _timed(fun, reps: int = 10) -> float:
    """Best-effort per-call seconds over ``reps`` repetitions."""
    fun()  # warm caches outside the timed region
    start = time.perf_counter()
    for _ in range(reps):
        fun()
    return (time.perf_counter() - start) / reps


@pytest.mark.parametrize("n_users", [2, 3, 4])
def test_bench_refine_engine_speedup(benchmark, n_users):
    """Engine refinement must be >=5x the scalar loop for K>=2 users."""
    rng = np.random.default_rng(7)
    windows, coarse = _collision(rng, n_users)
    engine = ResidualEngine(windows)

    scalar_s = _timed(lambda: refine_offsets_scalar(windows, coarse))
    engine_s = _timed(lambda: engine.refine(coarse))
    speedup = scalar_s / max(engine_s, 1e-12)
    benchmark.extra_info["scalar_ms"] = scalar_s * 1e3
    benchmark.extra_info["engine_ms"] = engine_s * 1e3
    benchmark.extra_info["speedup"] = speedup

    refined_scalar = refine_offsets_scalar(windows, coarse)
    refined_engine = benchmark(lambda: engine.refine(coarse))
    np.testing.assert_allclose(refined_engine, refined_scalar, atol=5e-3)
    perf_gate(
        speedup >= 5.0,
        f"K={n_users}: engine {engine_s * 1e3:.2f}ms vs scalar "
        f"{scalar_s * 1e3:.2f}ms = {speedup:.1f}x (< 5x floor)",
    )


def test_bench_refine_single_user(benchmark):
    """K=1 has no Schur block to amortize but must not regress vs scalar."""
    rng = np.random.default_rng(11)
    windows, coarse = _collision(rng, 1)
    engine = ResidualEngine(windows)

    scalar_s = _timed(lambda: refine_offsets_scalar(windows, coarse))
    engine_s = _timed(lambda: engine.refine(coarse))
    benchmark.extra_info["speedup"] = scalar_s / max(engine_s, 1e-12)
    benchmark(lambda: engine.refine(coarse))
    perf_gate(engine_s <= scalar_s, "engine slower than scalar for K=1")
