"""End-to-end tests for the ChoirDecoder."""

import numpy as np
import pytest

from repro.core import ChoirDecoder
from repro.phy import LoRaFramer
from repro.utils import circular_distance
from tests.core.conftest import PARAMS, make_collision, make_radio

N_BINS = PARAMS.chips_per_symbol


def _match(decoded_users, packet, stream_index):
    """Find the decoded user matching ground-truth user `stream_index`."""
    truth = packet.users[stream_index].true_offset_bins(PARAMS) % N_BINS
    best, best_d = None, 0.5
    for du in decoded_users:
        d = circular_distance(du.offset_bins, truth, period=N_BINS)
        if d < best_d:
            best, best_d = du, d
    return best


class TestTwoUserDecode:
    def test_perfect_at_high_snr(self):
        rng = np.random.default_rng(0)
        packet, streams = make_collision(rng, [(12.4, 2.6, 20.0), (90.7, 7.2, 15.0)])
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        assert len(users) == 2
        for k in range(2):
            du = _match(users, packet, k)
            assert du is not None
            assert np.array_equal(du.symbols, streams[k])

    def test_low_snr_pair(self):
        rng = np.random.default_rng(1)
        packet, streams = make_collision(rng, [(12.4, 1.0, 2.2), (90.7, 3.0, 2.0)])
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        for k in range(2):
            du = _match(users, packet, k)
            assert du is not None
            assert np.mean(du.symbols == streams[k]) > 0.9

    def test_near_far_30db(self):
        rng = np.random.default_rng(2)
        packet, streams = make_collision(rng, [(50.45, 3.1, 60.0), (20.8, 6.4, 2.0)])
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        weak = _match(users, packet, 1)
        assert weak is not None
        assert np.mean(weak.symbols == streams[1]) > 0.85


class TestMultiUserDecode:
    def test_five_users_well_separated(self):
        rng = np.random.default_rng(3)
        users_cfg = [
            (15.2, 1.0, 25.0),
            (60.7, 3.0, 18.0),
            (110.4, 5.0, 12.0),
            (170.9, 7.0, 8.0),
            (220.3, 9.0, 5.0),
        ]
        packet, streams = make_collision(rng, users_cfg)
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        accuracies = []
        for k in range(5):
            du = _match(users, packet, k)
            assert du is not None
            accuracies.append(np.mean(du.symbols == streams[k]))
        assert np.mean(accuracies) > 0.9

    def test_merged_offsets_lose_gracefully(self):
        # Two users 0.2 bins apart merge (paper: overlapping offsets bound
        # the gains) -- but a third well-separated user must still decode.
        rng = np.random.default_rng(4)
        packet, streams = make_collision(
            rng, [(50.4, 0.0, 20.0), (50.6, 0.0, 18.0), (150.9, 0.0, 15.0)]
        )
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, streams[0].size)
        third = _match(users, packet, 2)
        assert third is not None
        assert np.mean(third.symbols == streams[2]) > 0.85


class TestDecodeNoUsers:
    def test_noise_only_returns_empty(self):
        rng = np.random.default_rng(5)
        noise = (rng.normal(size=20 * 256) + 1j * rng.normal(size=20 * 256)) / np.sqrt(2)
        decoder = ChoirDecoder(PARAMS, threshold_snr=5.0)
        assert decoder.decode(noise, 4) in ([],) or len(decoder.decode(noise, 4)) <= 1


class TestPayloadDecode:
    def test_end_to_end_payloads(self):
        rng = np.random.default_rng(6)
        framer = LoRaFramer(PARAMS, coding_rate=4)
        payloads = [b"node-A temp=21.4", b"node-B temp=22.9"]
        frames = [framer.encode(p) for p in payloads]
        n_sym = frames[0].n_symbols
        packet, _ = make_collision(
            rng,
            [(30.3, 2.0, 15.0), (130.9, 5.0, 12.0)],
            symbols=[f.symbols for f in frames],
        )
        decoder = ChoirDecoder(PARAMS)
        users = decoder.decode(packet.samples, n_sym)
        recovered = set()
        for du in users:
            result = du.decode_payload(framer, len(payloads[0]))
            if result.crc_ok:
                recovered.add(result.payload)
        assert recovered == set(payloads)


class TestTeamDecode:
    def test_below_noise_team(self):
        rng = np.random.default_rng(7)
        shared = rng.integers(0, N_BINS, 10)
        users_cfg = [(rng.uniform(0, 250), rng.uniform(0, 6), 0.33) for _ in range(10)]
        packet, _ = make_collision(rng, users_cfg, symbols=[shared] * 10)
        decoder = ChoirDecoder(PARAMS)
        result = decoder.decode_team(packet.samples, shared.size)
        assert result.detected
        assert result.n_members_detected >= 4
        assert np.mean(result.symbols == shared) > 0.9

    def test_single_below_noise_node_not_decodable(self):
        rng = np.random.default_rng(8)
        shared = rng.integers(0, N_BINS, 10)
        packet, _ = make_collision(rng, [(80.3, 2.0, 0.12)], symbols=[shared])
        decoder = ChoirDecoder(PARAMS)
        result = decoder.decode_team(packet.samples, shared.size)
        accuracy = (
            np.mean(result.symbols == shared) if result.detected else 0.0
        )
        assert accuracy < 0.6

    def test_no_packet_returns_not_detected(self):
        rng = np.random.default_rng(9)
        noise = (rng.normal(size=24 * 256) + 1j * rng.normal(size=24 * 256)) / np.sqrt(2)
        decoder = ChoirDecoder(PARAMS)
        result = decoder.decode_team(noise, 8)
        assert not result.detected
        assert result.symbols.size == 0
