"""Streaming-windowed traffic rendering: recorded stream, memory bound, guard.

The capacity campaign's contract with the source: it renders only the
airborne frames (and their boards) while emitting the same stream the
retired materialize-everything renderer produced.  That stream is pinned
here by recorded digests and ground-truth rows -- phases, payloads and
per-radio draw streams replay in the same order by construction, so any
drift in scheduling or suspend/resume shows up as a digest change.
"""

import hashlib

import numpy as np
import pytest

from repro.gateway.sources import SyntheticTrafficSource
from repro.gateway.telemetry import Telemetry
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan, LoRaParams

PARAMS = LoRaParams(spreading_factor=7)

#: Digests of the streams below, recorded from the materialized renderer
#: (which the streaming one matched sample for sample).
NARROWBAND_DIGEST = "ddafb1e56b2803797992bbacbcbab0bac5e0bf8ca4ebb499f3699cf628585210"
WIDEBAND_DIGEST = "cc3ef3dffcb0ea5c2010c06e8435b8116d50ad7b45e3e16d557b2149d340b35c"
SATURATED_DIGEST = "682f25088891e14cf724f9866ea9ed455c085dccd9e679c5f9948fa283969d30"

#: ``(node_id, start_sample, payload)`` of every narrowband frame.
NARROWBAND_ROWS = [
    (4, 12263, "cb5d68e0d881"),
    (0, 15543, "c57d2f4fd97e"),
    (2, 25438, "2a5764f41742"),
    (1, 34377, "94ffd22c67ed"),
    (3, 45549, "900523ffcb87"),
    (0, 46793, "194485c069d0"),
    (4, 68513, "9c617f268bc8"),
    (2, 69188, "58b42262f97f"),
    (1, 71877, "0fd84c94008a"),
    (0, 78043, "9fd7ea2c3d70"),
    (3, 95549, "cc43d63f0300"),
    (0, 109293, "919a8aed9382"),
    (1, 109377, "d2fe4f731544"),
    (2, 112938, "6d849b146801"),
]

#: ``(node_id, channel, sf, start_sample, payload)`` of every wideband frame.
WIDEBAND_ROWS = [
    (3, 3, 8, 10616, "d5e6bba11853"),
    (2, 2, 7, 40776, "430eb5e82001"),
    (0, 0, 7, 61072, "b386aabb1c24"),
    (5, 1, 8, 118268, "05ced8e4cb54"),
    (1, 1, 8, 159568, "d66f58683089"),
    (4, 0, 7, 162892, "0982df3ea863"),
    (3, 3, 8, 210616, "d042e11cd9c8"),
    (2, 2, 7, 240776, "92934e2e47eb"),
    (0, 0, 7, 261072, "0b30a1323cfc"),
]


def collect(source: SyntheticTrafficSource) -> np.ndarray:
    return np.concatenate(list(source.chunks()))


def digest(stream: np.ndarray) -> str:
    """SHA-256 of the stream quantized to 1e-6 (robust to last-ulp libm drift)."""
    quantized = np.round(np.column_stack([stream.real, stream.imag]) * 1e6)
    return hashlib.sha256(quantized.astype(np.int64).tobytes()).hexdigest()


def narrowband(chunk_samples=4096, **kwargs):
    nodes = [
        NodeConfig(node_id=i, snr_db=12.0 + i, period_s=0.25 + 0.05 * i)
        for i in range(5)
    ]
    return SyntheticTrafficSource(
        params=PARAMS,
        nodes=nodes,
        duration_s=1.0,
        payload_len=6,
        chunk_samples=chunk_samples,
        rng=42,
        **kwargs,
    )


def wideband():
    plan = ChannelPlan.eu868_style(4)
    nodes = [
        NodeConfig(
            node_id=i,
            snr_db=15.0,
            period_s=0.4,
            channel=i % 4,
            spreading_factor=(7, 8)[i % 2],
        )
        for i in range(6)
    ]
    return SyntheticTrafficSource(
        params=PARAMS,
        nodes=nodes,
        duration_s=0.6,
        payload_len=6,
        plan=plan,
        rng=7,
    )


class TestStreamingParity:
    def test_narrowband_streams_are_sample_exact(self):
        source = narrowband()
        assert digest(collect(source)) == NARROWBAND_DIGEST
        assert [
            (p.node_id, p.start_sample, p.payload.hex()) for p in source.transmitted
        ] == NARROWBAND_ROWS

    def test_wideband_streams_are_sample_exact(self):
        source = wideband()
        assert digest(collect(source)) == WIDEBAND_DIGEST
        assert [
            (p.node_id, p.channel, p.spreading_factor, p.start_sample, p.payload.hex())
            for p in source.transmitted
        ] == WIDEBAND_ROWS

    def test_parity_holds_across_chunk_sizes(self):
        # noise is drawn per chunk (chunk-size dependent by design), so
        # the cross-chunk-size comparison pins the rendered signal alone
        a = collect(narrowband(chunk_samples=4096, noise_power=0.0))
        b = collect(narrowband(chunk_samples=1024, noise_power=0.0))
        assert float(np.max(np.abs(a - b))) < 1e-9

    def test_ground_truth_matches_after_consumption(self):
        source = narrowband()
        # Truth grows with the stream: nothing is known before it runs.
        assert source.ground_truth() == []
        collect(source)
        assert source.packets_scheduled == len(NARROWBAND_ROWS)
        truth = source.ground_truth()
        assert [
            (row["node_id"], row["start_sample"], row["payload"]) for row in truth
        ] == NARROWBAND_ROWS

    def test_saturated_node_resumes_radio_between_frames(self):
        # One saturated node transmits back-to-back frames, so its radio
        # is suspended and resumed many times mid-stream.
        source = SyntheticTrafficSource(
            params=PARAMS,
            nodes=[NodeConfig(node_id=0, snr_db=15.0, period_s=None)],
            duration_s=0.5,
            payload_len=4,
            rng=3,
        )
        assert digest(collect(source)) == SATURATED_DIGEST
        assert source.packets_scheduled == 18


class TestBoundedActiveSet:
    def test_5k_node_scenario_stays_bounded(self):
        """Regression: peak resident state is O(airborne frames), not
        O(population) -- the materializing path scaled linearly with the
        5000 nodes and would render them all up front."""
        n_nodes = 5000
        nodes = [
            NodeConfig(node_id=i, snr_db=15.0, period_s=60.0)
            for i in range(n_nodes)
        ]
        source = SyntheticTrafficSource(
            PARAMS,
            nodes,
            duration_s=1.0,
            payload_len=4,
            noise_power=0.0,
            rng=0,
            record_ground_truth=False,
            max_active_nodes=64,
        )
        for _ in source.chunks():
            pass
        # ~1/60 of the population fits a 1 s window; the resident set is
        # the handful of frames actually overlapping at any instant.
        assert 0 < source.packets_scheduled < n_nodes / 20
        assert source.active_peak <= 16
        # boards exist only for nodes that transmitted, parked dormant
        assert len(source._dormant) <= source.packets_scheduled
        # metadata stayed bounded too (record_ground_truth=False)
        assert source.transmitted == []

    def test_truth_rows_cover_every_scheduled_packet(self):
        # contrast case: with ground truth on, every scheduled packet
        # leaves one row once the stream is consumed
        nodes = [
            NodeConfig(node_id=i, snr_db=15.0, period_s=0.3) for i in range(4)
        ]
        source = SyntheticTrafficSource(
            PARAMS, nodes, duration_s=1.0, payload_len=4, rng=0
        )
        collect(source)
        assert len(source.transmitted) == source.packets_scheduled > 0


class TestActiveSetGuard:
    def test_overflow_raises_instead_of_growing(self):
        nodes = [
            NodeConfig(node_id=i, snr_db=15.0, period_s=None) for i in range(4)
        ]
        source = SyntheticTrafficSource(
            PARAMS,
            nodes,
            duration_s=0.5,
            payload_len=4,
            rng=1,
            max_active_nodes=2,
        )
        with pytest.raises(RuntimeError, match="max_active_nodes"):
            for _ in source.chunks():
                pass

    def test_guard_validates_bound(self):
        with pytest.raises(ValueError, match="max_active_nodes"):
            SyntheticTrafficSource(
                PARAMS,
                [NodeConfig(node_id=0, snr_db=15.0)],
                duration_s=0.1,
                max_active_nodes=0,
            )


class TestSourceTelemetry:
    def test_active_peak_gauge_published(self):
        telemetry = Telemetry()
        nodes = [
            NodeConfig(node_id=i, snr_db=15.0, period_s=0.2) for i in range(3)
        ]
        source = SyntheticTrafficSource(
            PARAMS,
            nodes,
            duration_s=0.8,
            payload_len=4,
            rng=5,
            telemetry=telemetry,
        )
        for _ in source.chunks():
            pass
        assert source.packets_scheduled > 0
        assert telemetry.gauge("source.active_peak").peak == source.active_peak
        assert telemetry.counter("source.packets").value == (
            source.packets_scheduled
        )
        # the live gauge drains back down as frames retire
        assert telemetry.gauge("source.active_frames").peak >= 1
