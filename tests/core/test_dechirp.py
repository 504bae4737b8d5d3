"""Tests for dechirping and oversampled spectra."""

import numpy as np
import pytest

from repro.core.dechirp import (
    dechirp_windows,
    oversampled_spectrum,
    quarter_bin_probe,
    spectrogram,
    spectrum_bin_positions,
)
from repro.phy import LoRaParams, modulate_symbols

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)


class TestDechirpWindows:
    def test_shape(self):
        waveform = modulate_symbols(PARAMS, [0, 1, 2, 3])
        windows = dechirp_windows(PARAMS, waveform)
        assert windows.shape == (4, PARAMS.samples_per_symbol)

    def test_partial_window_dropped(self):
        waveform = modulate_symbols(PARAMS, [0, 1])
        truncated = waveform[:-10]
        windows = dechirp_windows(PARAMS, truncated)
        assert windows.shape[0] == 1

    def test_start_offset(self):
        waveform = modulate_symbols(PARAMS, [5, 6, 7])
        windows = dechirp_windows(PARAMS, waveform, start=PARAMS.samples_per_symbol)
        spectrum = np.abs(np.fft.fft(windows[0]))
        assert np.argmax(spectrum) == 6

    def test_n_windows_cap(self):
        waveform = modulate_symbols(PARAMS, [0] * 5)
        windows = dechirp_windows(PARAMS, waveform, n_windows=3)
        assert windows.shape[0] == 3

    def test_empty_when_too_short(self):
        windows = dechirp_windows(PARAMS, np.zeros(10, dtype=complex))
        assert windows.shape == (0, PARAMS.samples_per_symbol)

    def test_each_window_is_pure_tone(self):
        symbols = [10, 200, 45]
        waveform = modulate_symbols(PARAMS, symbols)
        windows = dechirp_windows(PARAMS, waveform)
        for window, symbol in zip(windows, symbols):
            spectrum = np.abs(np.fft.fft(window))
            assert np.argmax(spectrum) == symbol


class TestOversampledSpectrum:
    def test_length(self):
        window = np.ones(256, dtype=complex)
        assert oversampled_spectrum(window, 10).size == 2560

    def test_stacked_windows(self):
        windows = np.ones((3, 256), dtype=complex)
        assert oversampled_spectrum(windows, 4).shape == (3, 1024)

    def test_peak_position_fractional(self):
        n = 256
        tone = np.exp(2j * np.pi * 50.4 * np.arange(n) / n)
        spectrum = np.abs(oversampled_spectrum(tone, 10))
        assert np.argmax(spectrum) / 10 == pytest.approx(50.4, abs=0.05)

    def test_bin_positions(self):
        positions = spectrum_bin_positions(256, 10)
        assert positions.size == 2560
        assert positions[10] == pytest.approx(1.0)


def _dtft(window, positions_bins):
    """Direct DTFT ``sum_n z[n] exp(-2j pi p n / N)`` at arbitrary bins."""
    n = window.shape[-1]
    basis = np.exp(-2j * np.pi * np.outer(positions_bins, np.arange(n)) / n)
    return basis @ window


class TestQuarterBinProbe:
    def test_matches_zero_padded_fft(self):
        # Entries 2c and 2c - 1 are bins 4c + 1 and 4c - 1 of the FFT
        # zero-padded to 4N (index -1 wraps on both sides).
        rng = np.random.default_rng(0)
        window = rng.normal(size=256) + 1j * rng.normal(size=256)
        probe = quarter_bin_probe(window)
        assert probe.shape == (512,)
        padded = np.fft.fft(window, 4 * 256)
        bins = np.arange(256)
        assert np.allclose(probe[2 * bins], padded[4 * bins + 1], atol=1e-8)
        assert np.allclose(probe[2 * bins - 1], padded[4 * bins - 1], atol=1e-8)

    @pytest.mark.parametrize("n", [128, 256])
    def test_matches_direct_dtft_at_quarter_bins(self, n):
        rng = np.random.default_rng(n)
        window = rng.normal(size=n) + 1j * rng.normal(size=n)
        bins = np.arange(n)
        probe = quarter_bin_probe(window)
        for got, offset in ((probe[2 * bins - 1], -0.25), (probe[2 * bins], 0.25)):
            expected = _dtft(window, bins + offset)
            assert np.max(np.abs(got - expected)) < 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("mu,index", [(31.25, 62), (31.75, 63), (255.75, -1)])
    def test_exact_at_quarter_bin_tone(self, mu, index):
        n = 256
        tone = np.exp(2j * np.pi * mu * np.arange(n) / n)
        assert abs(quarter_bin_probe(tone)[index]) == pytest.approx(n, rel=1e-9)


class TestSpectrogram:
    def test_shapes_consistent(self):
        waveform = modulate_symbols(PARAMS, [0, 1])
        times, freqs, magnitude = spectrogram(PARAMS, waveform)
        assert magnitude.shape == (times.size, freqs.size)

    def test_chirp_sweeps_through_band(self):
        waveform = modulate_symbols(PARAMS, [0])
        _, freqs, magnitude = spectrogram(PARAMS, waveform, window_len=32, hop=8)
        peak_freqs = freqs[np.argmax(magnitude, axis=1)]
        # The sweep should visit both band edges.
        assert peak_freqs.min() < -PARAMS.bandwidth / 4
        assert peak_freqs.max() > PARAMS.bandwidth / 4
