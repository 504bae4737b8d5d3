"""The receive chain draws no randomness.

Inputs are rendered first; then ``numpy.random.default_rng`` and
``numpy.random.SeedSequence`` are patched to raise, and the window decode
(``full`` and an escalating ``cascade``), the team decode and a serial
gateway run must give exactly the outcomes of an unpatched run.  A decoder
or worker pool that built a generator anywhere would fail here.
"""

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np
import pytest

from repro.channel import CollisionChannel
from repro.channel.noise import awgn
from repro.core.cascade import WINDOW_LEAD_SYMBOLS
from repro.core.decoder import ChoirDecoder
from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.gateway.workers import DecodeJob, DecodeOutcome, decode_packet_window
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel
from repro.mac.simulator import NodeConfig
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams
from repro.scenario.build import report_digest

PARAMS = LoRaParams(spreading_factor=7)
PAYLOAD_LEN = 4


def _poison(*args, **kwargs):
    raise AssertionError("the receive chain asked numpy for randomness")


def _forbid_randomness(monkeypatch) -> None:
    """From here on, every numpy generator or seed construction raises."""
    monkeypatch.setattr(np.random, "default_rng", _poison)
    monkeypatch.setattr(np.random, "SeedSequence", _poison)


def _collision_job(seed: int, n_users: int) -> DecodeJob:
    """A gateway-cut window holding ``n_users`` colliding CRC-valid frames."""
    rng = np.random.default_rng(seed)
    n = PARAMS.samples_per_symbol
    lead = WINDOW_LEAD_SYMBOLS * n
    window = None
    for user in range(n_users):
        radio = LoRaRadio(
            PARAMS,
            oscillator=OscillatorModel(
                PARAMS.bins_to_hz(rng.uniform(2.0, PARAMS.chips_per_symbol - 4.0))
            ),
            timing=TimingModel(rng.uniform(0.0, 8.0) / PARAMS.sample_rate),
            node_id=user,
            rng=rng,
        )
        payload = bytes(rng.integers(0, 256, PAYLOAD_LEN, dtype=np.uint8))
        amplitude = 10.0 ** (rng.uniform(10.0, 20.0) / 20.0)
        waveform, _, _ = radio.transmit_payload(payload, amplitude=amplitude)
        if window is None:
            window = np.zeros(lead + waveform.size + n, dtype=complex)
        window[lead : lead + waveform.size] += waveform
    return DecodeJob(
        job_id=seed,
        samples=awgn(window, 1.0, rng=rng),
        n_data_symbols=LoRaFramer(PARAMS).n_symbols_for_payload(PAYLOAD_LEN),
        payload_len=PAYLOAD_LEN,
        start_sample=0,
        detection_score=10.0,
        created_at=0.0,
        params=PARAMS,
        key=(0, PARAMS.spreading_factor, seed),
    )


def _decided(outcome: DecodeOutcome) -> tuple:
    """Everything an outcome decided (timings and bundles excluded)."""
    return (
        outcome.users,
        outcome.payload,
        outcome.crc_ok,
        outcome.sync_retries,
        outcome.error,
        outcome.key,
        outcome.tier,
        outcome.escalation_reason,
    )


@pytest.mark.parametrize("decode_tier", ["full", "cascade"])
@pytest.mark.parametrize("seed,n_users", [(1, 2), (2, 3)])
def test_window_decode_draws_no_randomness(monkeypatch, decode_tier, seed, n_users):
    job = _collision_job(seed, n_users)
    expected = decode_packet_window(job, max_users=4, decode_tier=decode_tier)
    _forbid_randomness(monkeypatch)
    got = decode_packet_window(job, max_users=4, decode_tier=decode_tier)
    assert _decided(got) == _decided(expected)
    assert got.users  # the decoder found the collision's users
    if decode_tier == "cascade":
        assert got.escalation_reason is not None  # full Choir ran too


def test_team_decode_draws_no_randomness(monkeypatch):
    rng = np.random.default_rng(9)
    shared = rng.integers(0, PARAMS.chips_per_symbol, 10)
    radios = [LoRaRadio(PARAMS, node_id=i, rng=rng) for i in range(6)]
    packet = CollisionChannel(PARAMS, noise_power=1.0).receive(
        [(radio, shared, 0.5 + 0j) for radio in radios], rng=rng
    )
    expected = ChoirDecoder(PARAMS).decode_team(packet.samples, shared.size)
    _forbid_randomness(monkeypatch)
    got = ChoirDecoder(PARAMS).decode_team(packet.samples, shared.size)
    assert got.detected and expected.detected
    np.testing.assert_array_equal(got.symbols, expected.symbols)
    assert (got.start_window, got.n_members_detected, got.score) == (
        expected.start_window,
        expected.n_members_detected,
        expected.score,
    )


@dataclass
class _Replay:
    """Pre-rendered chunks, replayed as a gateway sample source."""

    params: LoRaParams
    rendered: List[np.ndarray]

    def chunks(self) -> Iterator[np.ndarray]:
        yield from self.rendered


def test_serial_gateway_run_draws_no_randomness(monkeypatch):
    nodes = [NodeConfig(node_id=i, snr_db=15.0 - i, period_s=0.12) for i in range(4)]
    synthetic = SyntheticTrafficSource(
        PARAMS, nodes, duration_s=0.8, payload_len=PAYLOAD_LEN, rng=3
    )
    source = _Replay(PARAMS, list(synthetic.chunks()))
    config = GatewayConfig(params=PARAMS, payload_len=PAYLOAD_LEN, executor="serial")
    expected = Gateway(config).run(source)
    _forbid_randomness(monkeypatch)
    got = Gateway(config).run(source)
    assert report_digest(got) == report_digest(expected)
    assert [_decided(o) for o in got.outcomes] == [_decided(o) for o in expected.outcomes]
    assert got.packets_decoded > 0
    assert all(o.error is None for o in got.outcomes)
