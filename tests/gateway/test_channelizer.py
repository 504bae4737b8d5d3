"""Tests for the polyphase channelizer and the matching upconverter.

Covers the ISSUE's channelizer satellite: sub-band isolation, band-edge /
aliasing behaviour, chunk-straddle invariance, and flush semantics.
"""

import numpy as np
import pytest

from repro.gateway.channelizer import (
    DEFAULT_TAPS_PER_BRANCH,
    PolyphaseChannelizer,
    analysis_noise_gain,
    prototype_filter,
    upconvert_to_channel,
)
from repro.phy.chirp import upchirp
from repro.phy.params import ChannelPlan, LoRaParams

PLAN4 = ChannelPlan.eu868_style(4)
PLAN8 = ChannelPlan.eu868_style(8)


def _run_all(channelizer: PolyphaseChannelizer, wide: np.ndarray) -> np.ndarray:
    """Push a full capture plus flush; concatenate the per-channel outputs."""
    parts = [channelizer.push(wide), channelizer.flush()]
    return np.concatenate(parts, axis=1)


def _tone(plan: ChannelPlan, offset_hz: float, n_wide: int) -> np.ndarray:
    """A unit complex exponential at ``offset_hz`` from the wideband LO."""
    t = np.arange(n_wide) / plan.wideband_rate
    return np.exp(2j * np.pi * offset_hz * t)


def _steady_state_power(out: np.ndarray) -> np.ndarray:
    """Per-channel mean power, skipping the filter transient at both ends."""
    skip = 2 * DEFAULT_TAPS_PER_BRANCH
    body = out[:, skip:-skip]
    return np.mean(np.abs(body) ** 2, axis=1)


class TestPrototypeFilter:
    def test_unity_dc_gain_and_read_only(self):
        taps = prototype_filter(8)
        assert taps.size == 8 * DEFAULT_TAPS_PER_BRANCH
        assert taps.sum() == pytest.approx(1.0)
        assert not taps.flags.writeable
        assert prototype_filter(8) is taps  # cached

    def test_single_channel_is_passthrough(self):
        np.testing.assert_array_equal(prototype_filter(1), [1.0])

    def test_noise_gain_near_ideal_share(self):
        # Each channel should see ~1/M of the wideband noise power.
        for m in (4, 8):
            gain = analysis_noise_gain(m)
            assert gain == pytest.approx(1.0 / m, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            prototype_filter(0)


class TestSubBandIsolation:
    @pytest.mark.parametrize("channel", [0, 3, 5, 7])
    def test_tone_lands_on_its_channel_only(self, channel):
        # A tone a few kHz inside channel k must come out of branch k at
        # ~unity gain and be deep in the noise floor everywhere else.
        offset = PLAN8.offset_hz(channel) + 3_000.0
        wide = _tone(PLAN8, offset, 4096 * 8)
        out = _run_all(PolyphaseChannelizer(PLAN8), wide)
        power = _steady_state_power(out)
        assert power[channel] == pytest.approx(1.0, rel=0.05)
        others = np.delete(power, channel)
        rejection_db = 10 * np.log10(np.max(others) / power[channel])
        assert rejection_db < -50.0

    def test_no_aliasing_into_distant_channels(self):
        # Critically sampled banks alias neighbours, not distant channels:
        # a channel-2 tone must stay >60 dB below unity on channels 5..7.
        wide = _tone(PLAN8, PLAN8.offset_hz(2) - 10_000.0, 4096 * 8)
        power = _steady_state_power(_run_all(PolyphaseChannelizer(PLAN8), wide))
        for distant in (5, 6, 7):
            assert 10 * np.log10(power[distant]) < -60.0

    def test_band_edge_tone_splits_between_neighbours(self):
        # Exactly on the edge between channels 3 and 4 the prototype's
        # -6 dB point puts roughly a quarter of the power in each.
        edge = 0.5 * (PLAN8.offset_hz(3) + PLAN8.offset_hz(4))
        wide = _tone(PLAN8, edge, 4096 * 8)
        power = _steady_state_power(_run_all(PolyphaseChannelizer(PLAN8), wide))
        assert power[3] == pytest.approx(power[4], rel=0.05)
        assert 0.1 < power[3] < 0.5
        # And the edge tone still stays out of non-adjacent channels.
        assert 10 * np.log10(np.max(np.delete(power, [3, 4]))) < -40.0


class TestStreaming:
    def test_chunk_straddle_invariance(self):
        # Any chunking of the input -- including chunks smaller than the
        # decimation factor -- must reproduce the one-shot output exactly.
        rng = np.random.default_rng(0)
        n = 4 * 4096
        wide = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        whole = _run_all(PolyphaseChannelizer(PLAN4), wide)

        chunked = PolyphaseChannelizer(PLAN4)
        parts = []
        pos = 0
        while pos < n:
            step = int(rng.integers(1, 1000))
            parts.append(chunked.push(wide[pos : pos + step]))
            pos += step
        parts.append(chunked.flush())
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)

    def test_flush_semantics(self):
        channelizer = PolyphaseChannelizer(PLAN4)
        channelizer.push(np.zeros(256, dtype=complex))
        tail = channelizer.flush()
        assert tail.shape[0] == 4
        with pytest.raises(RuntimeError):
            channelizer.push(np.zeros(4, dtype=complex))
        with pytest.raises(RuntimeError):
            channelizer.flush()

    def test_single_channel_plan_is_identity(self):
        plan = ChannelPlan(n_channels=1)
        rng = np.random.default_rng(1)
        chunk = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        out = PolyphaseChannelizer(plan).push(chunk)
        np.testing.assert_array_equal(out, chunk.reshape(1, -1))

    def test_rejects_stepped_plans(self):
        with pytest.raises(ValueError, match="critically stacked"):
            PolyphaseChannelizer(ChannelPlan.us915_sub_band(0))


def _summed_branches(plan: ChannelPlan, chunks: list) -> list:
    """Channelizer outputs with the branch sum as an explicit weighted sum.

    The reference form ``weighted.reshape(n_out, -1, M).sum(axis=1)``
    that ``push`` computes as one contraction; the last chunk is the
    flush's zero tail.
    """
    m = plan.n_channels
    taps = prototype_filter(m)
    length = taps.size
    bins = np.array([(c - m // 2) % m for c in range(m)])
    buffer = np.zeros(length - m, dtype=complex)
    outputs = []
    for chunk in chunks + [np.zeros(length - m, dtype=complex)]:
        buffer = np.concatenate([buffer, chunk])
        n_out = (buffer.size - (length - m)) // m
        if n_out <= 0:
            outputs.append(np.zeros((m, 0), dtype=complex))
            continue
        windows = np.lib.stride_tricks.sliding_window_view(buffer, length)[::m][:n_out]
        weighted = windows[:, ::-1] * taps
        branches = weighted.reshape(n_out, -1, m).sum(axis=1)
        outputs.append((m * np.fft.ifft(branches, axis=1))[:, bins].T)
        buffer = buffer[n_out * m :]
    return outputs


class TestBranchContraction:
    @pytest.mark.parametrize("chunk_samples", [4096, 4000, 7])
    def test_matches_the_summed_branches_bit_for_bit(self, chunk_samples):
        plan = PLAN8
        rng = np.random.default_rng(chunk_samples)
        chunks = [
            rng.standard_normal(chunk_samples) + 1j * rng.standard_normal(chunk_samples)
            for _ in range(max(3, 12000 // chunk_samples))
        ]
        channelizer = PolyphaseChannelizer(plan)
        got = [channelizer.push(chunk) for chunk in chunks] + [channelizer.flush()]
        expected = _summed_branches(plan, chunks)
        assert len(got) == len(expected)
        for out, ref in zip(got, expected):
            np.testing.assert_array_equal(out, ref)


class TestUpconvertRoundTrip:
    def test_chirp_survives_synthesis_plus_analysis(self):
        # A LoRa upchirp placed on channel 5 of the plan must come back
        # out of branch 5 essentially intact (up to the bank's constant
        # group delay) and leave every other branch near-silent.
        params = PLAN8.channel_params(7)
        narrow = upchirp(params)
        wide = upconvert_to_channel(narrow, PLAN8, channel=5, start_sample=0)
        out = _run_all(PolyphaseChannelizer(PLAN8), wide)

        # Locate the integer-delay alignment by correlation, then compare.
        target = out[5]
        corr = np.abs(np.correlate(target, narrow, mode="valid"))
        delay = int(np.argmax(corr))
        recovered = target[delay : delay + narrow.size]
        similarity = np.abs(np.vdot(recovered, narrow)) / (
            np.linalg.norm(recovered) * np.linalg.norm(narrow)
        )
        assert similarity > 0.98

        # A chirp sweeps the full channel width, so its band edges leak a
        # little into the two neighbours (~-23 dB); everything further out
        # must be essentially silent.
        energy = np.sum(np.abs(out) ** 2, axis=1)
        assert np.max(energy[[4, 6]]) < 0.01 * energy[5]
        assert np.max(np.delete(energy, [4, 5, 6])) < 1e-4 * energy[5]

    def test_chunk_invariant_phase_reference(self):
        # Rendering the same waveform at start_sample=s must equal the
        # start_sample=0 rendering advanced by the mixer phase of s.
        params = LoRaParams(spreading_factor=7)
        narrow = upchirp(params)
        base = upconvert_to_channel(narrow, PLAN4, channel=1, start_sample=0)
        shifted = upconvert_to_channel(narrow, PLAN4, channel=1, start_sample=777)
        cycles = PLAN4.offset_hz(1) / PLAN4.wideband_rate
        np.testing.assert_allclose(
            shifted, base * np.exp(2j * np.pi * cycles * 777), atol=1e-12
        )

    def test_validates_channel(self):
        with pytest.raises(ValueError):
            upconvert_to_channel(np.ones(4, dtype=complex), PLAN4, channel=4)
