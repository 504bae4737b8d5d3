"""Property tests: invariances the receiver must respect.

A receiver's decisions may not depend on quantities the channel does not
preserve: absolute carrier phase, absolute amplitude (within dynamic
range), or the noise realization's seed plumbing.  These tests pin those
invariances down, several via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChoirDecoder
from repro.core.chanest import estimate_channels, reconstruct_tones
from repro.core.dechirp import oversampled_spectrum
from repro.core.peaks import find_peaks
from repro.core.residual import residual_power
from tests.core.conftest import PARAMS, make_collision


def _decode_symbols(samples, n_symbols):
    decoder = ChoirDecoder(PARAMS)
    users = decoder.decode(samples, n_symbols)
    return sorted(
        (round(u.offset_bins, 2), tuple(u.symbols.tolist())) for u in users
    )


class TestDecoderInvariances:
    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=8, deadline=None)
    def test_global_phase_rotation(self, phase):
        rng = np.random.default_rng(0)
        packet, streams = make_collision(rng, [(12.4, 2.6, 15.0), (90.7, 7.2, 12.0)])
        baseline = _decode_symbols(packet.samples, streams[0].size)
        rotated = _decode_symbols(packet.samples * np.exp(1j * phase), streams[0].size)
        assert rotated == baseline

    @given(st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=8, deadline=None)
    def test_global_amplitude_scale(self, scale):
        # Scaling signal AND noise together changes nothing (SNR constant).
        rng = np.random.default_rng(1)
        packet, streams = make_collision(rng, [(12.4, 2.6, 15.0), (90.7, 7.2, 12.0)])
        baseline = _decode_symbols(packet.samples, streams[0].size)
        scaled = _decode_symbols(packet.samples * scale, streams[0].size)
        assert scaled == baseline

    def test_rng_isolation(self):
        # Two fresh decoders decide identically: decoding draws no
        # randomness.
        rng = np.random.default_rng(2)
        packet, streams = make_collision(rng, [(30.3, 2.0, 15.0), (130.9, 5.0, 12.0)])
        a = _decode_symbols(packet.samples, streams[0].size)
        b = _decode_symbols(packet.samples, streams[0].size)
        assert a == b


class TestEstimatorInvariances:
    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=15, deadline=None)
    def test_channel_estimation_linear(self, scale):
        positions = np.array([17.3, 200.8])
        true_h = np.array([1.0 + 0.5j, -0.4 + 2.0j])
        signal = reconstruct_tones(positions, true_h, 256)
        estimated = estimate_channels(signal * scale, positions)
        assert np.allclose(estimated, true_h * scale, atol=1e-9)

    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=15, deadline=None)
    def test_residual_phase_invariant(self, phase):
        rng = np.random.default_rng(3)
        signal = reconstruct_tones(
            np.array([50.4]), np.array([3.0 + 0j]), 256
        ) + (rng.normal(size=256) + 1j * rng.normal(size=256)) * 0.1
        base = residual_power(signal, np.array([50.4]))
        rotated = residual_power(signal * np.exp(1j * phase), np.array([50.4]))
        assert rotated == pytest.approx(base, rel=1e-9)

    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0, max_value=2 * np.pi))
    @settings(max_examples=15, deadline=None)
    def test_peak_positions_scale_and_phase_invariant(self, scale, phase):
        rng = np.random.default_rng(4)
        signal = (
            10 * np.exp(2j * np.pi * 42.3 * np.arange(256) / 256)
            + (rng.normal(size=256) + 1j * rng.normal(size=256)) / np.sqrt(2)
        )
        base = find_peaks(oversampled_spectrum(signal, 10), 10, max_peaks=1)
        transformed = find_peaks(
            oversampled_spectrum(signal * scale * np.exp(1j * phase), 10),
            10,
            max_peaks=1,
        )
        assert transformed[0].position_bins == pytest.approx(
            base[0].position_bins, abs=1e-9
        )

    def test_residual_nonnegative_and_monotone_in_model_size(self):
        # Adding a tone to the model can only reduce the LS residual.
        rng = np.random.default_rng(5)
        signal = (rng.normal(size=256) + 1j * rng.normal(size=256)) / np.sqrt(2)
        r1 = residual_power(signal, np.array([10.0]))
        r2 = residual_power(signal, np.array([10.0, 77.7]))
        assert r2 <= r1 + 1e-9
        assert r2 >= 0.0
