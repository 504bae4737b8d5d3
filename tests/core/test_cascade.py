"""Tests for the tiered decode cascade (policy layer over the fast path).

Covers the contract ISSUE 8 rests on: build_pipeline is the only tier
selector, clean windows stay on Tier 0, every doubt (collision,
ambiguity, missing preamble, short window, CRC failure) escalates to the
full Choir pipeline, and escalated windows produce results identical to
running the full pipeline directly.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import observe
from repro.channel.noise import awgn
from repro.core.cascade import (
    DECODE_TIERS,
    ESCALATION_REASONS,
    REASON_COLLIDED,
    REASON_CRC_FAIL,
    REASON_TRUNCATED,
    TIER0,
    TIER_FULL,
    CascadePipeline,
    ChoirPipeline,
    UserFrame,
    WindowDecode,
    build_pipeline,
    check_frames,
)
from repro.core.decoder import DecodedUser
from repro.gateway.telemetry import Telemetry
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel
from repro.phy.encoding import bits_to_symbols, deinterleave, interleave, symbols_to_bits
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams

PARAMS = LoRaParams(spreading_factor=7)
PAYLOAD = b"ab12"


def _frame_in_window(params, seed=0, snr_db=15.0, symbols=None, payload=PAYLOAD):
    """One frame inside the gateway-style window (2-symbol lead, 1 tail)."""
    rng = np.random.default_rng(seed)
    radio = LoRaRadio(params, node_id=0, rng=rng)
    amplitude = 10 ** (snr_db / 20)
    if symbols is None:
        waveform, _, symbols = radio.transmit_payload(payload, amplitude=amplitude)
    else:
        waveform, _ = radio.transmit_symbols(symbols, amplitude=amplitude)
    n = params.samples_per_symbol
    window = np.concatenate(
        [
            np.zeros(2 * n, dtype=complex),
            waveform,
            np.zeros(n, dtype=complex),
        ]
    )
    return awgn(window, 1.0, rng=rng), np.asarray(symbols)


def _collided_window(params, seed=0, n_users=2, payload=PAYLOAD):
    """Fully overlapping users with well-separated offsets (Choir regime)."""
    rng = np.random.default_rng(seed)
    n = params.samples_per_symbol
    window = None
    for u in range(n_users):
        cfo_bins = 3.0 + u * (params.chips_per_symbol - 10.0) / n_users
        radio = LoRaRadio(
            params,
            oscillator=OscillatorModel(params.bins_to_hz(cfo_bins)),
            timing=TimingModel(rng.uniform(0.0, 8.0) / params.sample_rate),
            node_id=u,
            rng=rng,
        )
        amplitude = 10 ** (rng.uniform(12.0, 18.0) / 20)
        waveform, _, _ = radio.transmit_payload(payload, amplitude=amplitude)
        if window is None:
            window = np.concatenate(
                [
                    np.zeros(2 * n, dtype=complex),
                    waveform,
                    np.zeros(n, dtype=complex),
                ]
            )
        else:
            window[2 * n : 2 * n + waveform.size] += waveform
    return awgn(window, 1.0, rng=rng)


def _n_data(params, payload_len=len(PAYLOAD)):
    return LoRaFramer(params).n_symbols_for_payload(payload_len)


def _observed(pipeline, samples):
    """Decode under an observation scope; return (result, counter values)."""
    telemetry = Telemetry()
    with observe.scope(telemetry):
        result = pipeline.decode_window(samples, _n_data(PARAMS), len(PAYLOAD))
    counts = {
        name: state["value"]
        for name, state in telemetry.state().items()
        if state["type"] == "counter"
    }
    return result, counts


class TestBuildPipeline:
    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="decode tier"):
            build_pipeline("turbo", PARAMS)

    def test_tier_names_round_trip(self):
        for tier in DECODE_TIERS:
            assert build_pipeline(tier, PARAMS).tier == tier

    def test_full_tier_is_the_choir_pipeline(self):
        assert isinstance(build_pipeline("full", PARAMS), ChoirPipeline)

    def test_cascade_wraps_a_full_escalation_target(self):
        pipeline = build_pipeline("cascade", PARAMS)
        assert isinstance(pipeline, CascadePipeline)
        assert isinstance(pipeline.full, ChoirPipeline)

    def test_fast_tier_has_no_escalation_target(self):
        pipeline = build_pipeline("fast", PARAMS)
        assert isinstance(pipeline, CascadePipeline)
        assert pipeline.full is None


class TestWindowDecodeSemantics:
    def test_tier0_result_is_not_escalated(self):
        result = WindowDecode(users=(), crc_ok=False, tier=TIER0)
        assert not result.escalated

    def test_fast_tier_reason_is_not_escalated(self):
        result = WindowDecode(
            users=(), crc_ok=False, tier=TIER0, escalation_reason=REASON_COLLIDED
        )
        assert not result.escalated

    def test_full_with_reason_is_escalated(self):
        result = WindowDecode(
            users=(), crc_ok=False, tier=TIER_FULL, escalation_reason=REASON_COLLIDED
        )
        assert result.escalated

    def test_plain_full_decode_is_not_escalated(self):
        result = WindowDecode(users=(), crc_ok=False, tier=TIER_FULL)
        assert not result.escalated

    def test_reason_vocabulary_is_closed(self):
        assert set(ESCALATION_REASONS) == {
            "collided",
            "ambiguous",
            "no-preamble-peak",
            "crc-fail",
            "truncated",
        }


class TestCleanWindow:
    def test_clean_window_stays_on_tier0(self):
        samples, _ = _frame_in_window(PARAMS, seed=1)
        result = build_pipeline("cascade", PARAMS).decode_window(
            samples, _n_data(PARAMS), len(PAYLOAD)
        )
        assert result.tier == TIER0
        assert result.escalation_reason is None
        assert result.crc_ok
        assert [u.payload for u in result.users] == [PAYLOAD]

    def test_tier0_payload_matches_full_pipeline(self):
        samples, _ = _frame_in_window(PARAMS, seed=2)
        n_data = _n_data(PARAMS)
        cascade = build_pipeline("cascade", PARAMS).decode_window(
            samples, n_data, len(PAYLOAD)
        )
        full = build_pipeline(
            "full", PARAMS
        ).decode_window(samples, n_data, len(PAYLOAD))
        assert {u.payload for u in cascade.users if u.crc_ok} == {
            u.payload for u in full.users if u.crc_ok
        }

    def test_clean_window_increments_tier0_counters(self):
        samples, _ = _frame_in_window(PARAMS, seed=3)
        _, counts = _observed(build_pipeline("cascade", PARAMS), samples)
        assert counts["decode.tier0.attempts"] == 1
        assert counts["decode.tier0.ok"] == 1
        assert "decode.escalated" not in counts


class TestEscalation:
    def test_collision_escalates_with_reason(self):
        samples = _collided_window(PARAMS, seed=4)
        result = build_pipeline(
            "cascade", PARAMS, max_users=4
        ).decode_window(samples, _n_data(PARAMS), len(PAYLOAD))
        assert result.tier == TIER_FULL
        assert result.escalation_reason == REASON_COLLIDED
        assert result.escalated

    def test_escalated_result_matches_direct_full_decode(self):
        samples = _collided_window(PARAMS, seed=5)
        n_data = _n_data(PARAMS)
        cascade = build_pipeline(
            "cascade", PARAMS, max_users=4
        ).decode_window(samples, n_data, len(PAYLOAD))
        full = build_pipeline(
            "full", PARAMS, max_users=4
        ).decode_window(samples, n_data, len(PAYLOAD))
        assert cascade.users == full.users
        assert cascade.crc_ok == full.crc_ok
        assert cascade.sync_retries == full.sync_retries

    def test_escalation_increments_reason_counter(self):
        samples = _collided_window(PARAMS, seed=6)
        _, counts = _observed(
            build_pipeline(
                "cascade", PARAMS, max_users=4
            ),
            samples,
        )
        assert counts["decode.escalated"] == 1
        assert counts[f"decode.escalated.{REASON_COLLIDED}"] == 1
        # The full pipeline ran, so its attempt counter moved too.
        assert counts["decode.attempts"] >= 1
        assert "decode.tier0.ok" not in counts

    def test_crc_failure_falls_back_to_full(self):
        # Hamming(8,4) + interleaving absorbs 2 corrupted symbols; 3
        # break the CRC, which must bounce the window to the full path.
        frame = LoRaFramer(PARAMS).encode(PAYLOAD)
        corrupted = frame.symbols.copy()
        corrupted[:3] = (corrupted[:3] + 41) % PARAMS.chips_per_symbol
        samples, _ = _frame_in_window(PARAMS, seed=7, symbols=corrupted)
        result = build_pipeline(
            "cascade", PARAMS
        ).decode_window(samples, _n_data(PARAMS), len(PAYLOAD))
        assert result.escalation_reason == REASON_CRC_FAIL
        assert result.tier == TIER_FULL

    def test_crc_trials_count_every_user_frame_checked(self):
        # A frame whose CRC fails on every rung walks the whole alignment
        # ladder: Tier 0 checks one frame, then each rung checks every
        # user the full decoder found there.
        frame = LoRaFramer(PARAMS).encode(PAYLOAD)
        corrupted = frame.symbols.copy()
        corrupted[:3] = (corrupted[:3] + 41) % PARAMS.chips_per_symbol
        samples, _ = _frame_in_window(PARAMS, seed=7, symbols=corrupted)
        pipeline = build_pipeline("cascade", PARAMS)
        users_per_attempt = []
        decode_at = pipeline.full._decode_at

        def spy(*args):
            results = decode_at(*args)
            users_per_attempt.append(len(results))
            return results

        pipeline.full._decode_at = spy
        result, counts = _observed(pipeline, samples)
        assert result.tier == TIER_FULL and not result.crc_ok
        assert len(users_per_attempt) > 1 and sum(users_per_attempt) > 0
        assert counts["decode.attempts"] == len(users_per_attempt)
        assert counts["decode.crc_trials"] == 1 + sum(users_per_attempt)

    def test_short_window_escalates_truncated(self):
        samples, _ = _frame_in_window(PARAMS, seed=8)
        n = PARAMS.samples_per_symbol
        # Cut the capture off mid-frame: Tier 0 runs out of data symbols.
        truncated = samples[: (PARAMS.preamble_len + 4) * n]
        result = build_pipeline(
            "cascade", PARAMS
        ).decode_window(truncated, _n_data(PARAMS), len(PAYLOAD))
        assert result.escalation_reason == REASON_TRUNCATED


class TestFastTier:
    def test_clean_window_decodes_without_escalation_target(self):
        samples, _ = _frame_in_window(PARAMS, seed=9)
        result = build_pipeline("fast", PARAMS).decode_window(
            samples, _n_data(PARAMS), len(PAYLOAD)
        )
        assert result.tier == TIER0
        assert result.crc_ok
        assert [u.payload for u in result.users] == [PAYLOAD]

    def test_collision_records_reason_but_never_escalates(self):
        samples = _collided_window(PARAMS, seed=10)
        result, counts = _observed(build_pipeline("fast", PARAMS), samples)
        assert result.tier == TIER0
        assert result.escalation_reason == REASON_COLLIDED
        assert not result.escalated
        assert result.users == ()
        assert "decode.escalated" not in counts

    def test_crc_failure_keeps_the_partial_result(self):
        frame = LoRaFramer(PARAMS).encode(PAYLOAD)
        corrupted = frame.symbols.copy()
        corrupted[:3] = (corrupted[:3] + 41) % PARAMS.chips_per_symbol
        samples, _ = _frame_in_window(PARAMS, seed=11, symbols=corrupted)
        result = build_pipeline("fast", PARAMS).decode_window(
            samples, _n_data(PARAMS), len(PAYLOAD)
        )
        assert result.tier == TIER0
        assert result.escalation_reason == REASON_CRC_FAIL
        assert len(result.users) == 1
        assert not result.crc_ok


class TestUserFrame:
    def test_frozen_value_semantics(self):
        a = UserFrame(offset_bins=1.5, payload=b"x", crc_ok=True)
        b = UserFrame(offset_bins=1.5, payload=b"x", crc_ok=True)
        assert a == b
        with pytest.raises(Exception):
            a.crc_ok = False


def _fec_contradicted_symbols(params, payload=PAYLOAD):
    """A frame whose CRC verifies over one uncorrectable codeword.

    Two flipped parity bits leave the data bits intact but put the first
    codeword two bits from every CR 4/8 codeword.
    """
    sf = params.spreading_factor
    bits = deinterleave(symbols_to_bits(LoRaFramer(params).encode(payload).symbols, sf), sf, 8)
    bits[[4, 5]] ^= 1
    return bits_to_symbols(interleave(bits, sf, 8), sf)


class TestFrameVerdict:
    """The verdict is the CRC alone; the FEC's contradiction is counted."""

    def _check(self, symbols):
        user = DecodedUser(estimate=SimpleNamespace(position_bins=3.25), symbols=symbols)
        telemetry = Telemetry()
        with observe.scope(telemetry):
            frames = check_frames(LoRaFramer(PARAMS), [user, user], len(PAYLOAD))
        state = telemetry.state()
        return frames, {name: state[name]["value"] for name in state}

    def test_crc_pass_over_uncorrectable_codeword_is_counted(self):
        symbols = _fec_contradicted_symbols(PARAMS)
        decoded = LoRaFramer(PARAMS).decode(symbols, len(PAYLOAD))
        assert decoded.crc_ok and decoded.uncorrectable_codewords == 1
        frames, counts = self._check(symbols)
        assert [(f.payload, f.crc_ok) for f in frames] == [(PAYLOAD, True)] * 2
        assert counts["decode.fec_contradicted"] == 2
        assert counts["decode.crc_trials"] == 2

    def test_clean_frame_is_not_counted(self):
        frames, counts = self._check(LoRaFramer(PARAMS).encode(PAYLOAD).symbols)
        assert [f.crc_ok for f in frames] == [True, True]
        assert "decode.fec_contradicted" not in counts

    def test_truncated_user_is_not_checked(self):
        frames, counts = self._check(LoRaFramer(PARAMS).encode(PAYLOAD).symbols[:-1])
        assert frames == [] and counts["decode.crc_trials"] == 0

    def test_fec_contradicted_window_stays_on_tier0(self):
        samples, _ = _frame_in_window(PARAMS, seed=3, symbols=_fec_contradicted_symbols(PARAMS))
        result, counts = _observed(build_pipeline("cascade", PARAMS), samples)
        assert result.tier == TIER0 and result.crc_ok
        assert result.users[0].payload == PAYLOAD
        assert counts["decode.fec_contradicted"] == 1
