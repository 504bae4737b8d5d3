"""Tests for the gateway's synthetic-traffic and file IQ sources."""

import numpy as np
import pytest

from repro.gateway.sources import IqFileSource, SyntheticTrafficSource
from repro.mac.simulator import NodeConfig
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node


def _stream(source) -> np.ndarray:
    return np.concatenate(list(source.chunks()))


class TestSyntheticTrafficSource:
    def test_same_seed_same_stream(self):
        def make():
            return SyntheticTrafficSource(
                PARAMS, [periodic_node()], duration_s=0.5, payload_len=PAYLOAD_LEN, rng=7
            )

        a, b = make(), make()
        np.testing.assert_array_equal(_stream(a), _stream(b))
        assert a.transmitted
        assert [p.payload for p in a.transmitted] == [p.payload for p in b.transmitted]

    def test_chunk_size_does_not_change_signal(self):
        # The rendered *signal* is identical for any chunking (noise is
        # drawn per chunk, so invariance is only guaranteed noiselessly).
        streams = []
        for chunk in (512, 4096, 30000):
            source = SyntheticTrafficSource(
                PARAMS,
                [periodic_node()],
                duration_s=0.4,
                payload_len=PAYLOAD_LEN,
                chunk_samples=chunk,
                noise_power=0.0,
                rng=3,
            )
            streams.append(_stream(source))
        np.testing.assert_allclose(streams[0], streams[1])
        np.testing.assert_allclose(streams[0], streams[2])

    def test_noiseless_stream_places_waveforms_exactly(self):
        source = SyntheticTrafficSource(
            PARAMS,
            [periodic_node(period_s=0.3)],
            duration_s=0.4,
            payload_len=PAYLOAD_LEN,
            noise_power=0.0,
            rng=0,
        )
        stream = _stream(source)
        assert len(source.transmitted) == 1
        packet = source.transmitted[0]
        frame = packet.frame_samples(PARAMS)
        energy = np.abs(stream) > 0
        # The radio's timing model may delay the waveform a few samples
        # within its frame, so require bulk coverage, not every sample.
        span = energy[packet.start_sample : packet.start_sample + frame]
        assert span.sum() > 0.9 * frame
        assert not energy[: packet.start_sample].any()

    def test_periodic_schedule_spacing(self):
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node(period_s=0.2)], duration_s=1.0,
            payload_len=PAYLOAD_LEN, rng=1,
        )
        _stream(source)
        starts = [p.start_sample for p in source.transmitted]
        assert len(starts) > 1
        period = int(round(0.2 * PARAMS.sample_rate))
        assert np.all(np.diff(starts) == period)

    def test_saturated_schedule_is_back_to_back(self):
        source = SyntheticTrafficSource(
            PARAMS,
            [NodeConfig(node_id=0, snr_db=15.0, period_s=None)],
            duration_s=0.5,
            payload_len=PAYLOAD_LEN,
            rng=0,
        )
        _stream(source)
        starts = [p.start_sample for p in source.transmitted]
        slot = source.transmitted[0].frame_samples(PARAMS) + PARAMS.samples_per_symbol
        assert len(starts) > 5
        assert np.all(np.diff(starts) == slot)

    def test_packets_fit_within_duration(self):
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node(period_s=0.1)], duration_s=0.7,
            payload_len=PAYLOAD_LEN, rng=2,
        )
        assert source.duration_samples == int(0.7 * PARAMS.sample_rate)
        _stream(source)
        assert source.transmitted
        for packet in source.transmitted:
            assert packet.start_sample + packet.frame_samples(PARAMS) <= source.duration_samples

    def test_stream_length_matches_duration(self):
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=0.3, payload_len=PAYLOAD_LEN, rng=0
        )
        assert _stream(source).size == source.duration_samples

    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            SyntheticTrafficSource(PARAMS, [], duration_s=0.0, rng=0)
        with pytest.raises(ValueError, match="chunk"):
            SyntheticTrafficSource(PARAMS, [], duration_s=1.0, chunk_samples=0, rng=0)


class TestIqFileSource:
    def test_npy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        path = tmp_path / "capture.npy"
        np.save(path, samples)
        source = IqFileSource(PARAMS, str(path), chunk_samples=1234)
        chunks = list(source.chunks())
        assert all(c.size == 1234 for c in chunks[:-1])
        np.testing.assert_allclose(np.concatenate(chunks), samples)

    def test_raw_complex64_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)).astype(
            np.complex64
        )
        path = tmp_path / "capture.iq"
        samples.tofile(path)
        source = IqFileSource(PARAMS, str(path))
        np.testing.assert_allclose(np.concatenate(list(source.chunks())), samples)

    def test_validation(self, tmp_path):
        path = tmp_path / "x.npy"
        np.save(path, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="chunk"):
            IqFileSource(PARAMS, str(path), chunk_samples=0)
