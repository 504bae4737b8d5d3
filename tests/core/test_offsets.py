"""Tests for offset estimation: coarse, fine, delays, decomposition."""

import numpy as np
import pytest
from scipy import optimize

from repro.core.dechirp import dechirp_windows
from repro.core.offsets import (
    UserEstimate,
    build_user_estimates,
    coarse_offsets,
    estimate_delays,
    estimate_offsets,
    golden_section_minimize,
    refine_offsets,
)
from repro.core.residual import residual_power
from repro.utils import circular_distance
from tests.core.conftest import PARAMS, make_collision

N_BINS = PARAMS.chips_per_symbol


def _refine_nelder_mead(rows, coarse_positions, half_width_bins=0.6, n_restarts=2):
    """Reference: joint Nelder-Mead refinement with seeded random restarts.

    The paper's stochastic descent, kept here as an independent check on
    :func:`refine_offsets`; the receiver itself runs no random search.
    """
    rng = np.random.default_rng(0)
    lower = coarse_positions - half_width_bins
    upper = coarse_positions + half_width_bins

    def objective(x: np.ndarray) -> float:
        if np.any(x < lower) or np.any(x > upper):
            return 1e18
        return residual_power(rows, x)

    best_x = coarse_positions.copy()
    best_val = objective(best_x)
    starts = [coarse_positions]
    for _ in range(max(n_restarts - 1, 0)):
        starts.append(coarse_positions + rng.uniform(-0.3, 0.3, coarse_positions.size))
    for start in starts:
        result = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "xatol": 1e-4,
                "fatol": 1e-9,
                "maxiter": 200 * coarse_positions.size,
            },
        )
        if result.fun < best_val:
            best_val = float(result.fun)
            best_x = np.asarray(result.x, dtype=float)
    return best_x


REFINERS = {"coordinate": refine_offsets, "nelder-mead": _refine_nelder_mead}


def _preamble_windows(packet):
    return dechirp_windows(
        PARAMS,
        packet.samples,
        n_windows=PARAMS.preamble_len - 1,
        start=PARAMS.samples_per_symbol,
    )


class TestGoldenSection:
    def test_finds_parabola_minimum(self):
        x = golden_section_minimize(lambda v: (v - 3.21) ** 2, 0.0, 10.0, tol=1e-5)
        assert x == pytest.approx(3.21, abs=1e-4)

    def test_respects_bounds(self):
        x = golden_section_minimize(lambda v: -v, 0.0, 1.0)
        assert 0.0 <= x <= 1.0


class TestCoarseOffsets:
    def test_two_users_found(self):
        rng = np.random.default_rng(0)
        packet, _ = make_collision(rng, [(5.3, 0.0, 20.0), (70.8, 0.0, 15.0)])
        peaks = coarse_offsets(_preamble_windows(packet), 10)
        positions = sorted(p.position_bins for p in peaks)
        assert len(positions) == 2
        assert positions[0] == pytest.approx(5.3, abs=0.1)
        assert positions[1] == pytest.approx(70.8, abs=0.1)

    def test_max_users(self):
        rng = np.random.default_rng(1)
        packet, _ = make_collision(
            rng, [(5.3, 0.0, 20.0), (70.8, 0.0, 18.0), (150.1, 0.0, 16.0)]
        )
        peaks = coarse_offsets(_preamble_windows(packet), 10, max_users=2)
        assert len(peaks) == 2


class TestRefineOffsets:
    @pytest.mark.parametrize("method", ["coordinate", "nelder-mead"])
    def test_sub_bin_accuracy(self, method):
        rng = np.random.default_rng(2)
        truth = [12.37, 77.81]
        packet, _ = make_collision(rng, [(truth[0], 0.0, 20.0), (truth[1], 0.0, 15.0)])
        windows = _preamble_windows(packet)
        coarse = np.array([12.4, 77.8])
        refined = REFINERS[method](windows, coarse)
        assert refined[0] == pytest.approx(truth[0], abs=0.02)
        assert refined[1] == pytest.approx(truth[1], abs=0.02)

    def test_methods_agree(self):
        rng = np.random.default_rng(3)
        packet, _ = make_collision(rng, [(30.6, 0.0, 10.0), (99.2, 0.0, 10.0)])
        windows = _preamble_windows(packet)
        coarse = np.array([30.5, 99.3])
        a = refine_offsets(windows, coarse)
        b = _refine_nelder_mead(windows, coarse)
        assert np.allclose(a, b, atol=0.03)

    def test_empty_positions(self):
        out = refine_offsets(np.zeros((1, 8), dtype=complex), np.array([]))
        assert out.size == 0


class TestEstimateDelays:
    def test_recovers_known_delays(self):
        rng = np.random.default_rng(4)
        packet, _ = make_collision(rng, [(10.2, 3.6, 20.0), (90.5, 7.2, 15.0)])
        windows = _preamble_windows(packet)
        truth_mu = [u.true_offset_bins(PARAMS) % N_BINS for u in packet.users]
        positions = refine_offsets(windows, np.array(truth_mu))
        delays = estimate_delays(windows, positions)
        assert delays[0] == pytest.approx(3.6, abs=0.3)
        assert delays[1] == pytest.approx(7.2, abs=0.3)

    def test_zero_delay_stays_zero(self):
        rng = np.random.default_rng(5)
        packet, _ = make_collision(rng, [(10.2, 0.0, 20.0)])
        windows = _preamble_windows(packet)
        delays = estimate_delays(windows, np.array([10.2]))
        assert delays[0] == pytest.approx(0.0, abs=0.3)


class TestEstimateOffsets:
    def test_full_pipeline_accuracy(self):
        rng = np.random.default_rng(6)
        users = [(8.43, 2.5, 20.0), (120.77, 6.1, 12.0)]
        packet, _ = make_collision(rng, users)
        estimates = estimate_offsets(PARAMS, packet.samples)
        assert len(estimates) == 2
        truths = sorted(u.true_offset_bins(PARAMS) % N_BINS for u in packet.users)
        found = sorted(e.position_bins for e in estimates)
        for t, f in zip(truths, found):
            assert circular_distance(t, f, period=N_BINS) < 0.05

    def test_cfo_decomposition(self):
        # cfo = mu + delay must hold for the estimates (Eqn. 5).
        rng = np.random.default_rng(7)
        packet, _ = make_collision(rng, [(15.31, 4.25, 25.0)])
        estimates = estimate_offsets(PARAMS, packet.samples)
        est = estimates[0]
        assert est.cfo_bins == pytest.approx(15.31, abs=0.3)
        assert est.delay_samples == pytest.approx(4.25, abs=0.3)

    def test_empty_capture(self):
        assert estimate_offsets(PARAMS, np.zeros(10, dtype=complex)) == []

    def test_noise_only_no_users(self):
        rng = np.random.default_rng(8)
        noise = rng.normal(size=8 * 256) + 1j * rng.normal(size=8 * 256)
        estimates = estimate_offsets(PARAMS, noise, threshold_snr=5.0)
        assert len(estimates) <= 1  # rare false alarm tolerated

    def test_snr_ordering(self):
        rng = np.random.default_rng(9)
        packet, _ = make_collision(rng, [(8.4, 0.0, 30.0), (120.7, 0.0, 5.0)])
        estimates = estimate_offsets(PARAMS, packet.samples)
        assert estimates[0].channel_magnitude > estimates[1].channel_magnitude


class TestUserEstimate:
    def test_fractional(self):
        est = UserEstimate(position_bins=42.37, channels=np.ones(3, dtype=complex))
        assert est.fractional == pytest.approx(0.37)

    def test_phase_slope_extrapolation(self):
        slope = 0.1
        channels = np.exp(2j * np.pi * slope * np.arange(7))
        est = build_user_estimates(
            # Synthetic: one user, channels rotating by `slope` cycles/window.
            np.stack(
                [
                    channels[m] * np.exp(2j * np.pi * 5.0 * np.arange(256) / 256)
                    for m in range(7)
                ]
            ),
            np.array([5.0]),
        )[0]
        assert est.phase_slope_cycles == pytest.approx(slope, abs=1e-6)
        predicted = est.channel_at_window(10)
        assert np.angle(predicted) == pytest.approx(
            np.angle(np.exp(2j * np.pi * slope * 10)), abs=1e-3
        )
