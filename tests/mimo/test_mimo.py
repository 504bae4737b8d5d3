"""Tests for the MU-MIMO baseline and multi-antenna Choir."""

import numpy as np
import pytest

from repro.core import ChoirDecoder
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel
from repro.mimo import (
    ZfMimoDecoder,
    decode_choir_multiantenna,
    receive_multiantenna,
)
from repro.phy import LoRaParams

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)


def _radio(rng, cfo_bins, delay=0.0, node_id=0):
    return LoRaRadio(
        PARAMS,
        oscillator=OscillatorModel(PARAMS.bins_to_hz(cfo_bins)),
        timing=TimingModel(delay / PARAMS.sample_rate),
        node_id=node_id,
        rng=rng,
    )


def _capture(rng, cfos, n_antennas=3, snr_db=20.0, n_symbols=10, delays=None):
    delays = delays or [0.0] * len(cfos)
    radios = [_radio(rng, c, d, i) for i, (c, d) in enumerate(zip(cfos, delays))]
    streams = [rng.integers(0, 256, n_symbols) for _ in radios]
    amplitude = 10 ** (snr_db / 20.0)
    h = amplitude * (
        rng.normal(size=(n_antennas, len(radios)))
        + 1j * rng.normal(size=(n_antennas, len(radios)))
    ) / np.sqrt(2)
    capture = receive_multiantenna(
        PARAMS, list(zip(radios, streams)), h, noise_power=1.0, rng=rng
    )
    return capture, streams


class TestReceiveMultiantenna:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        capture, _ = _capture(rng, [10.3, 90.8])
        assert capture.n_antennas == 3
        assert capture.n_users == 2
        assert capture.samples.shape[0] == 3

    def test_channel_matrix_shape_checked(self):
        rng = np.random.default_rng(1)
        radio = _radio(rng, 5.0)
        with pytest.raises(ValueError, match="users"):
            receive_multiantenna(
                PARAMS, [(radio, np.zeros(2, dtype=int))], np.ones((2, 3)), rng=rng
            )


class TestZfDecoder:
    def test_two_users_three_antennas(self):
        rng = np.random.default_rng(2)
        capture, streams = _capture(rng, [10.0, 90.0])  # integer offsets
        decoder = ZfMimoDecoder(PARAMS)
        positions, symbols = decoder.decode(capture, streams[0].size)
        assert symbols.shape[0] == 2
        # Match decoded streams to ground truth by offset.
        accuracies = []
        for k, mu in enumerate(positions):
            truth_idx = int(np.argmin([abs(mu - 10.0), abs(mu - 90.0)]))
            accuracies.append(np.mean(symbols[k] == streams[truth_idx]))
        assert np.mean(accuracies) > 0.9

    def test_antenna_cap_enforced(self):
        rng = np.random.default_rng(3)
        capture, streams = _capture(rng, [10.0, 60.0, 120.0, 200.0], n_antennas=3)
        decoder = ZfMimoDecoder(PARAMS)
        with pytest.raises(ValueError, match="antenna"):
            decoder.decode(capture, streams[0].size)

    def test_estimate_mixing_positions(self):
        rng = np.random.default_rng(4)
        capture, _ = _capture(rng, [20.4, 130.7])
        decoder = ZfMimoDecoder(PARAMS)
        positions, h = decoder.estimate_mixing(capture)
        assert h.shape == (3, positions.size)
        assert sorted(np.round(positions, 1)) == pytest.approx([20.4, 130.7], abs=0.2)


class TestChoirMultiantenna:
    def test_majority_vote_improves_or_matches(self):
        rng = np.random.default_rng(5)
        capture, streams = _capture(
            rng, [15.3, 120.8], n_antennas=3, snr_db=8.0, delays=[2.0, 5.0]
        )
        decoder = ChoirDecoder(PARAMS)
        combined = decode_choir_multiantenna(decoder, capture, streams[0].size)
        assert len(combined) >= 2
        total = 0.0
        for du in combined:
            best = max(np.mean(du.symbols == s) for s in streams)
            total += best
        assert total / len(combined) > 0.85

    def test_empty_when_nothing_detected(self):
        rng = np.random.default_rng(6)
        noise = (rng.normal(size=(2, 20 * 256)) + 1j * rng.normal(size=(2, 20 * 256))) / np.sqrt(2)
        from repro.mimo.array import MultiAntennaCapture

        capture = MultiAntennaCapture(
            samples=noise,
            params=PARAMS,
            channel_matrix=np.zeros((2, 0), dtype=complex),
            states=(),
            symbols=(),
        )
        decoder = ChoirDecoder(PARAMS, threshold_snr=6.0)
        assert decode_choir_multiantenna(decoder, capture, 4) == []
