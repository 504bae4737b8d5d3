"""Failure-injection tests: the receiver under hostile conditions.

The paper's deployment arguments lean on CSS being "robust to narrowband
interferers" (Sec. 3) and on the ADC bounding what any decoder can do
(Sec. 5.2).  These tests inject those failures -- CW jammers, wideband
bursts, clipping ADCs, truncated captures -- and check the receiver
degrades the way the paper says it should.
"""

import numpy as np
import pytest

from repro.channel import CollisionChannel
from repro.core import ChoirDecoder
from repro.hardware import AdcModel, LoRaRadio, OscillatorModel, TimingModel
from repro.phy import LoRaParams
from repro.utils import circular_distance

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)


def _two_user_packet(rng, gains=(15.0, 12.0), n_symbols=14, adc=None):
    channel = CollisionChannel(PARAMS, noise_power=1.0, adc=adc)
    radios = [
        LoRaRadio(
            PARAMS,
            oscillator=OscillatorModel(PARAMS.bins_to_hz(mu)),
            timing=TimingModel(d / PARAMS.sample_rate),
            node_id=i,
            rng=rng,
        )
        for i, (mu, d) in enumerate([(20.3, 2.0), (130.9, 5.0)])
    ]
    streams = [rng.integers(0, 256, n_symbols) for _ in radios]
    packet = channel.receive(
        [(r, s, g + 0j) for r, s, g in zip(radios, streams, gains)], rng=rng
    )
    return packet, streams


def _accuracies(users, packet, streams):
    out = []
    for u, s in zip(packet.users, streams):
        truth = u.true_offset_bins(PARAMS) % 256
        best = 0.0
        for du in users:
            if circular_distance(du.offset_bins, truth, period=256) < 0.5:
                best = max(best, float(np.mean(du.symbols == s)))
        out.append(best)
    return out


class TestNarrowbandJammer:
    def test_cw_tone_jammer_tolerated(self):
        # A continuous-wave jammer 10 dB above each user: dechirping smears
        # it across the band (the CSS robustness the paper invokes).
        rng = np.random.default_rng(0)
        packet, streams = _two_user_packet(rng)
        n = packet.samples.size
        jammer = 40.0 * np.exp(2j * np.pi * 0.173 * np.arange(n))
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples + jammer, streams[0].size)
        accs = _accuracies(users, packet, streams)
        assert min(accs) > 0.85


class TestBurstInterference:
    def test_short_wideband_burst(self):
        # A strong noise burst over ~1.5 data windows: the affected symbols
        # may be lost but the rest of the packet must survive.
        rng = np.random.default_rng(1)
        packet, streams = _two_user_packet(rng)
        corrupted = packet.samples.copy()
        start = (PARAMS.preamble_len + 4) * PARAMS.samples_per_symbol
        length = int(1.5 * PARAMS.samples_per_symbol)
        corrupted[start : start + length] += 30.0 * (
            rng.normal(size=length) + 1j * rng.normal(size=length)
        )
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(corrupted, streams[0].size)
        accs = _accuracies(users, packet, streams)
        # At most ~3 of 14 symbols affected per user.
        assert min(accs) > 0.7


class TestAdcLimits:
    def test_clipping_adc_still_decodes_strong_users(self):
        rng = np.random.default_rng(2)
        adc = AdcModel(bits=8, full_scale=20.0)  # collision peaks clip
        packet, streams = _two_user_packet(rng, gains=(15.0, 12.0), adc=adc)
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        accs = _accuracies(users, packet, streams)
        assert max(accs) > 0.85  # at least the dominant structure survives

    def test_weak_user_below_quantization_floor_lost(self):
        # Sec. 5.2: "extremely weak transmitters are likely to be missed if
        # they are not registered by the analog components."  Note the
        # noise+strong-signal mixture acts as dither, so the weak user must
        # sit below the *combined* quantization+thermal floor to vanish --
        # a 3-bit ADC (quantization noise ~17x thermal) does it.
        rng = np.random.default_rng(3)
        adc = AdcModel(bits=3, full_scale=40.0)
        packet, streams = _two_user_packet(rng, gains=(35.0, 0.8), adc=adc)
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        accs = _accuracies(users, packet, streams)
        assert accs[0] > 0.6  # strong user survives (with quantization noise)
        assert accs[1] < 0.5  # weak user lost below the quantization floor

    def test_same_scenario_fine_adc_recovers_weak_user(self):
        rng = np.random.default_rng(3)
        adc = AdcModel(bits=14, full_scale=40.0)
        packet, streams = _two_user_packet(rng, gains=(35.0, 0.8), adc=adc)
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        accs = _accuracies(users, packet, streams)
        assert accs[1] > 0.85


class TestDegenerateInputs:
    def test_truncated_capture_decodes_available_windows(self):
        rng = np.random.default_rng(4)
        packet, streams = _two_user_packet(rng)
        cut = packet.samples[: (PARAMS.preamble_len + 6) * PARAMS.samples_per_symbol]
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(cut, streams[0].size)
        # Only 6 data windows available; decoded streams are short but valid.
        assert all(u.symbols.size == 6 for u in users)

    def test_all_zero_capture(self):
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(np.zeros(20 * 256, dtype=complex), 4)
        assert users == []

    def test_dc_offset_tolerated(self):
        # A receiver DC offset (LO leakage) dechirps into a chirp -- spread
        # like any narrowband interferer.
        rng = np.random.default_rng(6)
        packet, streams = _two_user_packet(rng)
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples + 5.0, streams[0].size)
        accs = _accuracies(users, packet, streams)
        assert min(accs) > 0.85
