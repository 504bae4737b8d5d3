"""Tests for least-squares channel estimation and window models."""

import numpy as np
import pytest

from repro.core.chanest import (
    data_column,
    estimate_channels,
    reconstruct_tones,
    tone_matrix,
)
from repro.core.dechirp import dechirp_windows
from repro.core.engine import fit_columns
from repro.phy import LoRaParams
from tests.core.conftest import make_radio

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)
N = PARAMS.samples_per_symbol


class TestToneMatrix:
    def test_shape(self):
        e = tone_matrix(np.array([1.0, 2.5]), 64)
        assert e.shape == (64, 2)

    def test_columns_are_unit_tones(self):
        e = tone_matrix(np.array([5.0]), 256)
        expected = np.exp(2j * np.pi * 5.0 * np.arange(256) / 256)
        assert np.allclose(e[:, 0], expected)

    def test_delay_glitch_phase(self):
        e = tone_matrix(np.array([0.0]), 256, np.array([4.5]))
        # Head samples carry the (N/2 - delta) jump.
        jump = np.exp(2j * np.pi * (128 - 4.5))
        assert np.allclose(e[:4, 0], jump)
        assert np.allclose(e[5:, 0], 1.0)

    def test_delay_length_mismatch(self):
        with pytest.raises(ValueError, match="delays"):
            tone_matrix(np.array([0.0, 1.0]), 64, np.array([1.0]))


class TestEstimateChannels:
    def test_exact_on_synthetic_mixture(self):
        n = 256
        positions = np.array([10.3, 77.8])
        true_h = np.array([2.0 - 1.0j, 0.5 + 0.25j])
        signal = reconstruct_tones(positions, true_h, n)
        estimated = estimate_channels(signal, positions)
        assert np.allclose(estimated, true_h, atol=1e-9)

    def test_multi_window(self):
        n = 256
        positions = np.array([10.3])
        rows = np.stack(
            [
                reconstruct_tones(positions, np.array([h]), n)
                for h in (1 + 0j, 0 + 1j, -1 + 0j)
            ]
        )
        estimated = estimate_channels(rows, positions)
        assert estimated.shape == (3, 1)
        assert np.allclose(estimated[:, 0], [1 + 0j, 0 + 1j, -1 + 0j], atol=1e-9)

    def test_noise_robustness(self):
        rng = np.random.default_rng(0)
        n = 256
        positions = np.array([42.7])
        signal = reconstruct_tones(positions, np.array([5.0 + 0j]), n)
        noisy = signal + (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        estimated = estimate_channels(noisy, positions)
        assert estimated[0] == pytest.approx(5.0 + 0j, abs=0.3)


class TestDataColumn:
    def test_zero_delay_is_pure_tone(self):
        column = data_column(3.3, 0.0, 17, 200, N)
        expected = np.exp(2j * np.pi * (3.3 + 17) * np.arange(N) / N)
        assert np.allclose(column, expected)

    def test_matches_rendered_waveform(self):
        # The analytic data-window model must match the actual dechirped
        # window of a delayed, CFO-impaired transmission up to one complex
        # scale factor (the channel).
        rng = np.random.default_rng(1)
        cfo_bins, delay = 11.37, 6.4
        radio = make_radio(rng, cfo_bins, delay)
        symbols = np.array([133, 57, 201])
        waveform, state = radio.transmit_symbols(symbols)
        mu = state.aggregate_offset_bins(PARAMS) % PARAMS.chips_per_symbol
        start = (PARAMS.preamble_len + 1) * N  # second data window
        window = dechirp_windows(PARAMS, waveform, n_windows=1, start=start)[0]
        column = data_column(mu, delay, int(symbols[1]), int(symbols[0]), N)
        # Least-squares residual of the single-column fit should be ~zero.
        h, _ = fit_columns(column[:, None], window)
        residual = window - column * h[0]
        assert np.linalg.norm(residual) / np.linalg.norm(window) < 1e-6

    def test_pure_tone_model_mismatches_delayed_window(self):
        # Without the glitch segment the fit has a visible floor -- this is
        # exactly why the near-far decode needs data_column.
        rng = np.random.default_rng(2)
        radio = make_radio(rng, 11.37, 6.4)
        symbols = np.array([133, 57, 201])
        waveform, state = radio.transmit_symbols(symbols)
        mu = state.aggregate_offset_bins(PARAMS) % PARAMS.chips_per_symbol
        start = (PARAMS.preamble_len + 1) * N
        window = dechirp_windows(PARAMS, waveform, n_windows=1, start=start)[0]
        pure = data_column(mu, 0.0, int(symbols[1]), 0, N)
        h, _ = fit_columns(pure[:, None], window)
        residual = window - pure * h[0]
        assert np.linalg.norm(residual) / np.linalg.norm(window) > 1e-3


class TestFitColumns:
    def test_multi_column(self):
        n = 128
        cols = np.stack(
            [
                np.exp(2j * np.pi * 3.0 * np.arange(n) / n),
                np.exp(2j * np.pi * 60.5 * np.arange(n) / n),
            ],
            axis=-1,
        )
        true_h = np.array([1.5 + 0j, -2.0 + 1j])
        signal = cols @ true_h
        h, fit = fit_columns(cols, signal)
        assert np.allclose(h, true_h, atol=1e-9)
        # An exact model explains all of the signal's power.
        assert fit == pytest.approx(float(np.sum(np.abs(signal) ** 2)), rel=1e-9)

    def test_singular_gram_falls_back_to_lstsq(self):
        n = 64
        tone = np.exp(2j * np.pi * 5.0 * np.arange(n) / n)
        cols = np.stack([tone, tone], axis=-1)
        h, _ = fit_columns(cols, 3.0 * tone)
        # The minimum-norm split of one amplitude over two equal columns.
        assert np.allclose(h, [1.5, 1.5], atol=1e-9)
