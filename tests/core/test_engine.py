"""Engine-vs-scalar agreement: the vectorized residual engine is a pure
optimization and must reproduce the scalar reference paths bit-for-bit
(well, to 1e-9) across offsets, delays, window counts and user counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chanest import estimate_channels, tone_matrix
from repro.core.engine import (
    CandidateView,
    ResidualEngine,
    _cached_column,
    _phasor_columns,
)
from repro.core.offsets import refine_offsets_scalar
from repro.core.residual import residual_power, residual_surface

N_SAMPLES = 64


def _windows(rng, positions, n_windows=5, delays=None, noise=0.3):
    """Synthetic dechirped windows with tones at ``positions`` (+ glitches)."""
    positions = np.asarray(positions, dtype=float)
    k = positions.size
    channels = rng.normal(size=(n_windows, k)) + 1j * rng.normal(
        size=(n_windows, k)
    )
    if delays is None:
        basis = tone_matrix(positions, N_SAMPLES)
    else:
        basis = np.column_stack(
            [
                _cached_column(N_SAMPLES, positions[i], float(delays[i]))
                for i in range(k)
            ]
        )
    out = (basis @ channels.T).T
    return out + noise * (
        rng.normal(size=(n_windows, N_SAMPLES))
        + 1j * rng.normal(size=(n_windows, N_SAMPLES))
    )


positions_st = st.lists(
    st.floats(min_value=2.0, max_value=N_SAMPLES - 4.0),
    min_size=1,
    max_size=4,
    unique_by=lambda x: round(x),  # keep tones >= ~1 bin apart
)


class TestResidualAgreement:
    @settings(max_examples=40, deadline=None)
    @given(
        positions=positions_st,
        n_windows=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_scalar_reference(self, positions, n_windows, seed):
        rng = np.random.default_rng(seed)
        positions = np.sort(np.asarray(positions))
        windows = _windows(rng, positions, n_windows=n_windows)
        scalar = residual_power(windows, positions)
        vectorized = ResidualEngine(windows).residual(positions)
        assert abs(vectorized - scalar) <= 1e-9 * max(1.0, abs(scalar))

    @settings(max_examples=40, deadline=None)
    @given(
        positions=positions_st,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        delay_scale=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_matches_scalar_with_delays(self, positions, seed, delay_scale):
        rng = np.random.default_rng(seed)
        positions = np.sort(np.asarray(positions))
        delays = rng.uniform(0.0, max(delay_scale, 1e-6), positions.size)
        windows = _windows(rng, positions, delays=delays)
        scalar = residual_power(windows, positions, delays_samples=delays)
        vectorized = ResidualEngine(windows).residual(positions, delays)
        assert abs(vectorized - scalar) <= 1e-9 * max(1.0, abs(scalar))

    def test_channels_match_scalar(self):
        rng = np.random.default_rng(3)
        positions = np.array([11.3, 30.8, 47.1])
        windows = _windows(rng, positions)
        expected = estimate_channels(windows, positions)
        np.testing.assert_allclose(
            ResidualEngine(windows).channels(positions), expected, atol=1e-9
        )

    def test_single_window_1d_input(self):
        rng = np.random.default_rng(4)
        positions = np.array([20.4])
        windows = _windows(rng, positions, n_windows=1)
        scalar = residual_power(windows[0], positions)
        vectorized = ResidualEngine(windows[0]).residual(positions)
        assert vectorized == pytest.approx(scalar, rel=1e-9)

    def test_empty_positions(self):
        rng = np.random.default_rng(5)
        windows = _windows(rng, [15.0])
        empty = np.array([])
        scalar = residual_power(windows, empty)
        vectorized = ResidualEngine(windows).residual(empty)
        assert vectorized == pytest.approx(scalar, rel=1e-12)
        assert vectorized == pytest.approx(float(np.sum(np.abs(windows) ** 2)))


class TestBatchedCandidates:
    def test_residuals_at_matches_loop(self):
        rng = np.random.default_rng(6)
        positions = np.array([14.2, 40.6])
        windows = _windows(rng, positions)
        engine = ResidualEngine(windows)
        candidates = np.stack(
            [positions + rng.uniform(-0.4, 0.4, 2) for _ in range(25)]
        )
        batched = engine.residuals_at(candidates)
        looped = [residual_power(windows, cand) for cand in candidates]
        np.testing.assert_allclose(batched, looped, rtol=1e-9)

    def test_candidate_view_matches_full_model(self):
        # Schur-complement scoring of the varied column must equal a full
        # solve with all K columns present.
        rng = np.random.default_rng(7)
        positions = np.array([10.7, 25.2, 50.9])
        windows = _windows(rng, positions)
        engine = ResidualEngine(windows)
        view = CandidateView(engine, positions[1:], None)
        mus = positions[0] + np.linspace(-0.5, 0.5, 21)
        schur = view.residuals(mus)
        full = [
            residual_power(windows, np.concatenate([[mu], positions[1:]]))
            for mu in mus
        ]
        np.testing.assert_allclose(schur, full, rtol=1e-9)

    def test_prefix_sum_delay_batch_matches_scalar(self):
        # repeat(mu_grid, D) x tile(delta_grid) batches take the prefix-sum
        # correlation path (no materialized columns); it must agree with
        # the scalar per-candidate reference.
        rng = np.random.default_rng(12)
        positions = np.array([10.7, 25.2, 50.9])
        fixed_delays = np.array([2.3, 0.0])
        windows = _windows(rng, positions)
        engine = ResidualEngine(windows)
        view = CandidateView(engine, positions[1:], fixed_delays)
        mu_grid = positions[0] + np.linspace(-0.4, 0.4, 7)
        delta_grid = np.linspace(0.0, 12.0, 13)
        mus = np.repeat(mu_grid, delta_grid.size)
        deltas = np.tile(delta_grid, mu_grid.size)
        fast = view.residuals(mus, deltas)
        ref = [
            residual_power(
                windows,
                np.array([m, *positions[1:]]),
                delays_samples=np.array([d, *fixed_delays]),
            )
            for m, d in zip(mus, deltas)
        ]
        np.testing.assert_allclose(fast, ref, rtol=1e-9)

    def test_refine_matches_scalar_refinement(self):
        rng = np.random.default_rng(8)
        truth = np.array([18.37, 44.81])
        windows = _windows(rng, truth, noise=0.1)
        coarse = truth + np.array([0.2, -0.15])
        engine_pos = ResidualEngine(windows).refine(coarse)
        scalar_pos = refine_offsets_scalar(windows, coarse)
        np.testing.assert_allclose(engine_pos, scalar_pos, atol=5e-3)
        np.testing.assert_allclose(engine_pos, truth, atol=0.05)


class TestCaches:
    def test_cached_column_is_readonly_and_stable(self):
        col = _cached_column(N_SAMPLES, 12.25, 3.0)
        assert not col.flags.writeable
        again = _cached_column(N_SAMPLES, 12.25, 3.0)
        assert again is col  # lru_cache hit, not a recomputation

    def test_phasor_columns_uniform_grid_matches_dense(self):
        # The geometric-progression fast path must agree with the dense
        # outer-product exponential it replaces.
        n = np.arange(N_SAMPLES, dtype=float)
        mus = np.linspace(17.1, 17.9, 33)
        fast = _phasor_columns(n, mus, N_SAMPLES)
        dense = np.exp(2j * np.pi * np.outer(n, mus) / N_SAMPLES)
        np.testing.assert_allclose(fast, dense, atol=1e-10)

    def test_phasor_columns_nonuniform_grid(self):
        n = np.arange(N_SAMPLES, dtype=float)
        mus = np.array([3.0, 3.5, 9.25])
        fast = _phasor_columns(n, mus, N_SAMPLES)
        dense = np.exp(2j * np.pi * np.outer(n, mus) / N_SAMPLES)
        np.testing.assert_allclose(fast, dense, atol=1e-12)


class TestSurfaceRegression:
    def test_batched_surface_matches_scalar_loop(self):
        # residual_surface now evaluates one batched residuals_at call; it
        # must agree with the cell-by-cell scalar evaluation it replaced.
        rng = np.random.default_rng(9)
        centers = np.array([20.3, 47.7])
        windows = _windows(rng, centers, noise=0.05)
        g1, g2, surface = residual_surface(
            windows, centers, span_bins=0.5, n_points=9
        )
        expected = np.empty_like(surface)
        for i, a in enumerate(g1):
            for j, b in enumerate(g2):
                expected[i, j] = residual_power(windows, np.array([a, b]))
        np.testing.assert_allclose(surface, expected, rtol=1e-9)
