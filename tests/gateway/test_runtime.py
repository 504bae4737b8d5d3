"""End-to-end tests for the streaming gateway runtime."""

import multiprocessing

import numpy as np
import pytest

from repro.gateway import (
    Gateway,
    GatewayConfig,
    GatewayReport,
    IqFileSource,
    SyntheticTrafficSource,
)
from repro.mac.simulator import NodeConfig
from repro.server.frames import uplinks_from_report
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node


def _run(source, **overrides) -> GatewayReport:
    config = GatewayConfig(
        params=PARAMS,
        payload_len=PAYLOAD_LEN,
        executor=overrides.pop("executor", "serial"),
        seed=overrides.pop("seed", 0),
        **overrides,
    )
    return Gateway(config).run(source)


class TestEndToEnd:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decoded_payloads_match_transmitted(self, seed):
        # The PR's acceptance test: a deterministic seed drives synthetic
        # traffic through the full streaming path (chunked ingest, ring,
        # detection, alignment, decode, CRC) and every transmitted
        # payload comes back out.
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=seed
        )
        report = _run(source, seed=seed)
        sent = sorted(p.payload for p in source.transmitted)
        assert len(sent) == 4
        assert sorted(report.decoded_payloads) == sent
        assert report.packets_detected == len(sent)
        assert report.packets_dropped == 0

    def test_two_node_traffic_decodes(self):
        nodes = [
            periodic_node(node_id=0, snr_db=15.0, period_s=0.45),
            periodic_node(node_id=1, snr_db=12.0, period_s=0.6),
        ]
        source = SyntheticTrafficSource(
            PARAMS, nodes, duration_s=1.5, payload_len=PAYLOAD_LEN, rng=0
        )
        report = _run(source)
        sent = sorted(p.payload for p in source.transmitted)
        assert sorted(report.decoded_payloads) == sent

    def test_thread_executor_matches_serial(self):
        def run(executor):
            source = SyntheticTrafficSource(
                PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
            )
            return _run(source, executor=executor, n_workers=4 if executor == "thread" else 1)

        serial, threaded = run("serial"), run("thread")
        assert sorted(serial.decoded_payloads) == sorted(threaded.decoded_payloads)
        by_id_serial = {o.job_id: o.payload for o in serial.outcomes}
        by_id_thread = {o.job_id: o.payload for o in threaded.outcomes}
        assert by_id_serial == by_id_thread

    def test_raising_source_leaves_no_worker_process(self):
        class Failing:
            """Two packets' worth of chunks, then a dead capture device."""

            def __init__(self) -> None:
                self.inner = SyntheticTrafficSource(
                    PARAMS, [periodic_node()], duration_s=1.0,
                    payload_len=PAYLOAD_LEN, rng=0,
                )
                self.params = self.inner.params
                self.workers_alive = 0

            def chunks(self):
                for index, chunk in enumerate(self.inner.chunks()):
                    if index == 20:
                        self.workers_alive = len(multiprocessing.active_children())
                        raise OSError("capture device lost")
                    yield chunk

        source = Failing()
        with pytest.raises(OSError, match="capture device lost"):
            # "full": every detected window goes to a worker process.
            _run(source, executor="process", n_workers=2, decode_tier="full")
        assert source.workers_alive > 0
        assert multiprocessing.active_children() == []

    def test_back_to_back_saturated_traffic(self):
        # Saturated node: frames separated by one guard symbol only.
        source = SyntheticTrafficSource(
            PARAMS,
            [NodeConfig(node_id=0, snr_db=15.0, period_s=None)],
            duration_s=0.25,
            payload_len=PAYLOAD_LEN,
            rng=0,
        )
        report = _run(source)
        sent = sorted(p.payload for p in source.transmitted)
        assert len(sent) > 4
        assert sorted(report.decoded_payloads) == sent

    def test_noise_only_stream_detects_nothing(self):
        source = SyntheticTrafficSource(
            PARAMS, [], duration_s=0.5, payload_len=PAYLOAD_LEN, rng=0
        )
        report = _run(source)
        assert report.packets_detected == 0
        assert report.packets_decoded == 0
        assert report.samples_in == source.duration_samples

    def test_file_source_replay_decodes_same_payloads(self, tmp_path):
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node(period_s=0.3)], duration_s=0.7,
            payload_len=PAYLOAD_LEN, rng=2,
        )
        stream = np.concatenate(list(source.chunks()))
        path = tmp_path / "capture.npy"
        np.save(path, stream)
        report = _run(IqFileSource(PARAMS, str(path)))
        sent = sorted(p.payload for p in source.transmitted)
        assert len(sent) > 0
        assert sorted(report.decoded_payloads) == sent


@pytest.fixture(scope="module")
def report_and_sent() -> tuple[GatewayReport, list[bytes]]:
    source = SyntheticTrafficSource(
        PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
    )
    return _run(source), sorted(p.payload for p in source.transmitted)


class TestReport:
    def test_summary_mentions_every_stage(self, report_and_sent):
        report, _ = report_and_sent
        text = report.summary()
        assert "gateway run summary" in text
        assert "detected" in text and "decoded" in text and "dropped" in text
        # Clean packets only: one Tier-0 CRC check each.
        assert (
            f"crc-trials   {report.packets_decoded} user frames checked,"
            " 0 crc-ok over an uncorrectable codeword" in text
        )
        for stage in ("ingest", "detect", "queue-wait", "decode"):
            assert stage in text
        assert "p50=" in text and "p95=" in text

    def test_rates_are_consistent(self, report_and_sent):
        report, sent = report_and_sent
        assert report.packets_decoded == len(sent)
        assert report.decode_success_rate == 1.0
        assert report.drop_rate == 0.0
        assert report.packets_per_s > 0
        assert report.samples_per_s > 0
        assert report.stream_s == pytest.approx(1.0)
        assert report.realtime_factor == pytest.approx(
            report.stream_s / report.wall_s, rel=1e-6
        )

    def test_telemetry_snapshot_in_report(self, report_and_sent):
        report, _ = report_and_sent
        assert report.telemetry["detect.packets"]["value"] == report.packets_detected
        assert report.telemetry["decode.decode_s"]["count"] == len(report.outcomes)


class TestShardTags:
    """A plan-less run is the SF7 shard of channel 0, tagged as such."""

    def test_outcomes_carry_channel_and_sf(self, report_and_sent):
        report, _ = report_and_sent
        assert report.outcomes
        for outcome in report.outcomes:
            assert outcome.channel == 0
            assert outcome.spreading_factor == PARAMS.spreading_factor
            assert outcome.key[:2] == (0, PARAMS.spreading_factor)
        assert set(report.shards) == {"ch0.sf7"}

    def test_uplinks_carry_channel_and_sf(self, report_and_sent):
        report, sent = report_and_sent
        frames = uplinks_from_report(report, 0, PARAMS.sample_rate)
        assert len(frames) == len(sent)
        for frame in frames:
            assert frame.channel == 0
            assert frame.spreading_factor == PARAMS.spreading_factor


class TestConfig:
    def test_frame_geometry(self):
        config = GatewayConfig(params=PARAMS, payload_len=PAYLOAD_LEN)
        assert config.n_data_symbols() == 16
        assert config.frame_samples() == (PARAMS.preamble_len + 16) * PARAMS.samples_per_symbol

