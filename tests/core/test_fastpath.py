"""Tests for the Tier-0 fast path: sync, evidence, discriminator, decode.

The agreement class is the cascade's safety bedrock: on clean captures
the Tier-0 decoder must reproduce the full ChoirDecoder's symbol
decisions *exactly* across spreading factors and an SNR sweep --
otherwise "fast path" would quietly mean "different answers".
"""

import numpy as np
import pytest

from repro.channel.noise import awgn
from repro.core import fastpath
from repro.core.decoder import ChoirDecoder
from repro.core.fastpath import (
    AMBIGUOUS,
    CLEAN,
    COLLIDED,
    NO_PREAMBLE,
    FastPathDecoder,
    PreambleEvidence,
    _refine_parabolic,
)
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams
from repro.utils import circular_distance

PARAMS = LoRaParams(spreading_factor=7)


def _clean_capture(params, seed=0, snr_db=15.0, lead_symbols=2, payload=b"ab12"):
    """One single-user frame with board impairments, noise lead and tail."""
    rng = np.random.default_rng(seed)
    radio = LoRaRadio(params, node_id=0, rng=rng)
    waveform, state, symbols = radio.transmit_payload(
        payload, amplitude=10 ** (snr_db / 20)
    )
    n = params.samples_per_symbol
    capture = np.concatenate(
        [
            np.zeros(lead_symbols * n, dtype=complex),
            waveform,
            np.zeros(n, dtype=complex),
        ]
    )
    return awgn(capture, 1.0, rng=rng), state, symbols


def _collided_capture(params, seed=0, n_users=2, snr_db=15.0):
    """Fully overlapping multi-user frame with well-separated offsets."""
    rng = np.random.default_rng(seed)
    n = params.samples_per_symbol
    window = None
    for u in range(n_users):
        cfo_bins = 2.0 + u * (params.chips_per_symbol - 8.0) / n_users
        radio = LoRaRadio(
            params,
            oscillator=OscillatorModel(params.bins_to_hz(cfo_bins)),
            timing=TimingModel(rng.uniform(0.0, 8.0) / params.sample_rate),
            node_id=u,
            rng=rng,
        )
        waveform, _, _ = radio.transmit_payload(
            b"ab12", amplitude=10 ** (snr_db / 20)
        )
        if window is None:
            window = np.concatenate(
                [np.zeros(2 * n, dtype=complex), waveform, np.zeros(n, dtype=complex)]
            )
        else:
            window[2 * n : 2 * n + waveform.size] += waveform
    return awgn(window, 1.0, rng=rng)


class TestPacketStartEstimation:
    def test_energy_edge_lands_within_half_symbol(self):
        n = PARAMS.samples_per_symbol
        capture, _, _ = _clean_capture(PARAMS, seed=1, lead_symbols=2)
        start = FastPathDecoder(PARAMS).estimate_packet_start(capture)
        assert abs(start - 2 * n) <= n // 2

    def test_flat_noise_returns_near_zero(self):
        # Pure noise has no rising edge; the estimator may latch onto a
        # random moving-average fluctuation but must not report a start
        # deep inside the capture (that would eat preamble on real
        # packets with no lead).
        rng = np.random.default_rng(2)
        noise = awgn(np.zeros(4096, dtype=complex), 1.0, rng=rng)
        start = FastPathDecoder(PARAMS).estimate_packet_start(noise)
        assert start <= PARAMS.samples_per_symbol // 2

    def test_no_lead_returns_near_zero(self):
        capture, _, _ = _clean_capture(PARAMS, seed=3, lead_symbols=0)
        start = FastPathDecoder(PARAMS).estimate_packet_start(capture)
        assert start <= PARAMS.samples_per_symbol // 2


class TestDiscriminator:
    def test_clean_capture_classifies_clean(self):
        capture, _, _ = _clean_capture(PARAMS, seed=4)
        fast = FastPathDecoder(PARAMS)
        evidence = fast.analyze_preamble(
            capture, fast.estimate_packet_start(capture)
        )
        assert evidence.classify() == CLEAN
        assert evidence.fractional_spread_bins < fastpath.AMBIGUOUS_SPREAD_BINS
        assert evidence.second_peak_ratio <= fastpath.COLLIDED_PEAK_RATIO

    def test_two_user_collision_classifies_collided(self):
        capture = _collided_capture(PARAMS, seed=5, n_users=2)
        fast = FastPathDecoder(PARAMS)
        evidence = fast.analyze_preamble(
            capture, fast.estimate_packet_start(capture)
        )
        assert evidence.classify() == COLLIDED

    def test_noise_only_never_classifies_clean(self):
        # On pure noise the accumulated argmax wanders window to window,
        # so whichever escalating verdict fires (no-preamble-peak when
        # the peak is weak, ambiguous/collided otherwise) the window must
        # leave Tier 0 -- CLEAN would hand garbage to the argmax decoder.
        rng = np.random.default_rng(6)
        n = PARAMS.samples_per_symbol
        noise = awgn(
            np.zeros((PARAMS.preamble_len + 4) * n, dtype=complex), 1.0, rng=rng
        )
        fast = FastPathDecoder(PARAMS)
        evidence = fast.analyze_preamble(noise, 0)
        assert evidence.classify() != CLEAN

    def test_weak_peak_classifies_no_preamble(self):
        evidence = PreambleEvidence(
            start_sample=0,
            mu_bins=0.0,
            peak_snr=fastpath.MIN_PEAK_SNR / 2.0,
            second_peak_ratio=0.0,
            fractional_spread_bins=0.0,
            n_windows=7,
        )
        assert evidence.classify() == NO_PREAMBLE

    def test_truncated_preamble_classifies_no_preamble(self):
        evidence = PreambleEvidence(
            start_sample=0,
            mu_bins=0.0,
            peak_snr=50.0,
            second_peak_ratio=0.0,
            fractional_spread_bins=0.0,
            n_windows=1,
        )
        assert evidence.classify() == NO_PREAMBLE

    def test_spread_alone_classifies_ambiguous(self):
        evidence = PreambleEvidence(
            start_sample=0,
            mu_bins=3.0,
            peak_snr=20.0,
            second_peak_ratio=0.0,
            fractional_spread_bins=0.5,
            n_windows=7,
        )
        assert evidence.classify() == AMBIGUOUS

    def test_mu_estimate_matches_ground_truth(self):
        capture, state, _ = _clean_capture(PARAMS, seed=7)
        fast = FastPathDecoder(PARAMS)
        evidence = fast.analyze_preamble(
            capture, fast.estimate_packet_start(capture)
        )
        true_offset = state.aggregate_offset_bins(PARAMS) % PARAMS.chips_per_symbol
        # The energy-edge start absorbs the integer part; the fractional
        # part of mu must match the transmitter's combined CFO+TO shift.
        assert circular_distance(
            evidence.mu_bins % 1.0, true_offset % 1.0, period=1.0
        ) < 0.1


class TestTier0Decode:
    @pytest.mark.parametrize("sf", [7, 8])
    @pytest.mark.parametrize("snr_db", [10.0, 15.0, 20.0])
    def test_symbols_agree_with_choir_decoder(self, sf, snr_db):
        params = LoRaParams(spreading_factor=sf)
        capture, _, true_symbols = _clean_capture(
            params, seed=8, snr_db=snr_db, lead_symbols=0
        )
        fast = FastPathDecoder(params)
        evidence = fast.analyze_preamble(capture, 0)
        assert evidence.classify() == CLEAN
        tier0 = fast.decode(capture, evidence, len(true_symbols))

        choir = ChoirDecoder(params)
        users = choir.decode(capture, len(true_symbols))
        assert len(users) >= 1
        # Same window, same verdict, symbol for symbol.
        assert np.array_equal(tier0.symbols, users[0].symbols)
        assert np.array_equal(tier0.symbols, true_symbols)

    def test_round_trip_through_framer(self):
        params = PARAMS
        payload = b"zx9\x00"
        capture, _, symbols = _clean_capture(params, seed=9, payload=payload)
        fast = FastPathDecoder(params)
        evidence = fast.analyze_preamble(
            capture, fast.estimate_packet_start(capture)
        )
        decoded = fast.decode(capture, evidence, len(symbols))
        frame = LoRaFramer(params).decode(decoded.symbols, len(payload))
        assert frame.crc_ok
        assert frame.payload == payload

    def test_estimate_carries_mu_and_channels(self):
        capture, _, symbols = _clean_capture(PARAMS, seed=10)
        fast = FastPathDecoder(PARAMS)
        evidence = fast.analyze_preamble(
            capture, fast.estimate_packet_start(capture)
        )
        decoded = fast.decode(capture, evidence, len(symbols))
        assert decoded.estimate.position_bins == pytest.approx(evidence.mu_bins)
        assert decoded.estimate.channels.size == PARAMS.preamble_len - 1
        # Channel magnitudes sit near the transmit amplitude, not noise.
        assert np.median(np.abs(decoded.estimate.channels)) > 1.0


class TestParabolicRefine:
    def test_flat_spectrum_returns_index(self):
        assert _refine_parabolic(np.ones(8), 3) == 3.0

    def test_peak_offset_recovers_direction(self):
        power = np.array([0.0, 1.0, 3.0, 2.9, 0.0])
        refined = _refine_parabolic(power, 2)
        assert 2.0 < refined < 3.0

    def test_wraps_circularly(self):
        power = np.array([2.9, 0.5, 0.0, 0.5, 3.0])
        refined = _refine_parabolic(power, 4)
        assert refined > 4.0  # leaning toward index 0 across the wrap


class TestThresholds:
    def test_defaults_are_calibrated_ordering(self):
        assert 0.0 < fastpath.AMBIGUOUS_SPREAD_BINS < 1.0
        assert 0.0 < fastpath.COLLIDED_PEAK_RATIO < 1.0
        assert fastpath.MIN_PEAK_SNR > 0.0
