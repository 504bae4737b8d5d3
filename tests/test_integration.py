"""Cross-module integration tests: full pipelines over the public API."""

import numpy as np
import pytest

from repro import (
    ChoirDecoder,
    CollisionChannel,
    EnvironmentField,
    LoRaFramer,
    LoRaParams,
    LoRaRadio,
    CampusTestbed,
    SensorNode,
)
from repro.hardware import OscillatorModel, TimingModel
from repro.sensing import msb_overlap, splice_bits, merge_chunks
from repro.sensing.sensors import TEMP_RANGE_C, code_to_bits, bits_to_code, dequantize_reading
from repro.utils import circular_distance

PARAMS = LoRaParams(spreading_factor=8, preamble_len=8)


class TestPayloadCollisionPipeline:
    """Payload bytes -> radios -> collision -> Choir -> payload bytes."""

    def test_three_user_payload_recovery(self):
        rng = np.random.default_rng(0)
        framer = LoRaFramer(PARAMS, coding_rate=4)
        payloads = [b"sensor-00 t=21.50", b"sensor-01 t=22.10", b"sensor-02 t=20.90"]
        frames = [framer.encode(p) for p in payloads]
        n_sym = frames[0].n_symbols
        radios = [
            LoRaRadio(
                PARAMS,
                oscillator=OscillatorModel(PARAMS.bins_to_hz(mu)),
                timing=TimingModel(d / PARAMS.sample_rate),
                node_id=i,
                rng=rng,
            )
            for i, (mu, d) in enumerate([(20.3, 2.0), (110.8, 5.0), (200.4, 8.0)])
        ]
        channel = CollisionChannel(PARAMS, noise_power=1.0)
        packet = channel.receive(
            [(r, f.symbols, 12.0 + 0j) for r, f in zip(radios, frames)], rng=rng
        )
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, n_sym)
        recovered = {
            du.decode_payload(framer, len(payloads[0])).payload
            for du in users
            if du.decode_payload(framer, len(payloads[0])).crc_ok
        }
        assert recovered == set(payloads)

    def test_testbed_driven_snrs(self):
        # Place real nodes on the campus testbed and use its link SNRs.
        rng = np.random.default_rng(1)
        testbed = CampusTestbed(rng_seed=1)
        placed = [testbed.place_at_distance(i, 150.0 + 150.0 * i) for i in range(3)]
        radios = [LoRaRadio(PARAMS, node_id=p.node_id, rng=rng) for p in placed]
        gains = [testbed.packet_gain(p, rng=rng) for p in placed]
        streams = [rng.integers(0, 256, 14) for _ in radios]
        channel = CollisionChannel(PARAMS, noise_power=1.0)
        packet = channel.receive(
            [(r, s, g) for r, s, g in zip(radios, streams, gains)], rng=rng
        )
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, 14)
        # At least the users with healthy SNR decode correctly.
        healthy = [
            k
            for k, g in enumerate(gains)
            if 20 * np.log10(abs(g)) > 3.0
        ]
        matched = 0
        for k in healthy:
            truth_mu = packet.users[k].true_offset_bins(PARAMS) % 256
            for du in users:
                if circular_distance(du.offset_bins, truth_mu, period=256) < 0.5:
                    if np.mean(du.symbols == streams[k]) > 0.9:
                        matched += 1
                    break
        assert matched == len(healthy)


class TestSensorTeamPipeline:
    """Field -> sensors -> splicing -> team transmission -> recovery."""

    def test_msb_chunks_identical_across_team(self):
        rng = np.random.default_rng(2)
        field = EnvironmentField(rng_seed=2)
        sensors = [
            SensorNode(i, 0.5 + 0.02 * i, 0.5, floor=1, noise_c=0.05) for i in range(6)
        ]
        codes = [s.temperature_code(field, 12, rng) for s in sensors]
        overlap = msb_overlap(codes, 12)
        assert overlap >= 4
        chunk_sizes = [4, 4, 4]
        all_first_chunks = {
            tuple(splice_bits(code_to_bits(c, 12), chunk_sizes)[0]) for c in codes
        }
        assert len(all_first_chunks) == 1  # identical MSB chunk -> can team up

    def test_team_transmits_shared_chunk_below_noise(self):
        # The full Sec. 7 path: identical MSB chunk, concurrent transmission
        # below the single-user floor, joint decode, value reconstruction.
        rng = np.random.default_rng(3)
        field = EnvironmentField(rng_seed=3)
        sensors = [
            SensorNode(i, 0.45 + 0.02 * i, 0.52, floor=2, noise_c=0.05)
            for i in range(8)
        ]
        codes = [s.temperature_code(field, 12, rng) for s in sensors]
        chunk_sizes = [4, 4, 4]
        shared_chunk = splice_bits(code_to_bits(codes[0], 12), chunk_sizes)[0]
        # Map the 4-bit chunk onto one symbol (plus padding symbols).
        chunk_symbol = int(bits_to_code(shared_chunk))
        stream = np.array([chunk_symbol] * 6)
        channel = CollisionChannel(PARAMS, noise_power=1.0)
        transmissions = [
            (LoRaRadio(PARAMS, node_id=i, rng=rng), stream, 0.33 + 0j)
            for i in range(8)
        ]
        packet = channel.receive(transmissions, rng=rng)
        decoder = ChoirDecoder(PARAMS)
        result = decoder.decode_team(packet.samples, stream.size)
        assert result.detected
        recovered_symbol = int(np.median(result.symbols))
        assert recovered_symbol == chunk_symbol
        # Reconstruct the coarse reading.
        merged, n_known = merge_chunks(
            [code_to_bits(recovered_symbol, 4), None, None], chunk_sizes
        )
        assert n_known == 4
        coarse = dequantize_reading(bits_to_code(merged), TEMP_RANGE_C, 12)
        truth = dequantize_reading(codes[0], TEMP_RANGE_C, 12)
        # Coarse view within 1/2^4 of the range plus a margin.
        assert abs(coarse - truth) < (TEMP_RANGE_C[1] - TEMP_RANGE_C[0]) / 16
