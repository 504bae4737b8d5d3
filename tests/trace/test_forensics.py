"""Tests for the packet-forensics classifier and the post-mortem report.

The end-to-end class replays the standard 20-packet benchmark scenario
(2 nodes at 0.5 s over 5 s, SF7) with failure-only trace
sampling and checks the acceptance property: every non-recovered packet
gets a drop reason from the taxonomy -- ``unknown`` never appears.
"""

import json

import pytest

from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.mac.simulator import NodeConfig
from repro.trace.export import load_trace, write_trace
from repro.trace.forensics import (
    CLUSTER_AMBIGUOUS,
    CRC_FAIL,
    DECODE_ERROR,
    DISPATCH_DROPPED,
    MISALIGNED,
    NOT_DETECTED,
    UNKNOWN,
    ForensicsReport,
    PostMortem,
    analyze,
    classify_outcome,
    main,
    sic_tier_reason,
)
from repro.trace.model import PacketTrace, Span, SpanEvent
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN


def _outcome(**overrides):
    base = {
        "job_id": 0,
        "key": [0],
        "channel": 0,
        "spreading_factor": 7,
        "start_sample": 0,
        "detection_score": 3.0,
        "crc_ok": False,
        "n_users": 1,
        "sync_retries": 0,
        "error": None,
        "payload": None,
        "users": [{"offset_bins": 3.5, "payload": None, "crc_ok": False}],
    }
    base.update(overrides)
    return base


def _trace(root: Span) -> PacketTrace:
    return PacketTrace(
        key=(0,), job_id=0, channel=0, spreading_factor=7,
        start_sample=0, detection_score=3.0, sampled=True, root=root,
    )


def _root(*, align_score=None, sic_tiers=0, conflicts=False) -> Span:
    root = Span(name="decode.job", start_ts=0.0, end_ts=1.0)
    if align_score is not None:
        root.children.append(
            Span(name="align", start_ts=0.0, end_ts=0.1, attrs={"score": align_score})
        )
    for tier in range(sic_tiers):
        root.events.append(
            SpanEvent(
                name="sic.tier",
                ts=0.5,
                attrs={"tier": tier, "residual_power": 1.0 / (tier + 1)},
            )
        )
    if conflicts:
        root.events.append(
            SpanEvent(name="decode.conflict", ts=0.6, attrs={"users": [0, 1]})
        )
    return root


class TestClassifyOutcome:
    def test_decode_error(self):
        reason, stage, detail = classify_outcome(
            _outcome(error="boom"), None
        )
        assert (reason, stage) == (DECODE_ERROR, "decode")
        assert "boom" in detail

    def test_sic_residual_floor_with_trace(self):
        reason, stage, detail = classify_outcome(
            _outcome(n_users=0, users=[]), _trace(_root(sic_tiers=3))
        )
        assert reason == sic_tier_reason(3)
        assert stage == "sic"
        assert "residual power" in detail

    def test_sic_residual_floor_without_trace(self):
        reason, _, _ = classify_outcome(_outcome(n_users=0, users=[]), None)
        assert reason == sic_tier_reason(1)

    def test_misaligned(self):
        reason, stage, detail = classify_outcome(
            _outcome(), _trace(_root(align_score=2.5, sic_tiers=1))
        )
        assert (reason, stage) == (MISALIGNED, "align")
        assert "2.50" in detail

    def test_conflicts_mean_cluster_ambiguous(self):
        reason, stage, _ = classify_outcome(
            _outcome(), _trace(_root(align_score=9.0, conflicts=True))
        )
        assert (reason, stage) == (CLUSTER_AMBIGUOUS, "cluster")

    def test_near_collided_fractionals_mean_cluster_ambiguous(self):
        users = [
            {"offset_bins": 3.30, "payload": None, "crc_ok": False},
            {"offset_bins": 7.35, "payload": None, "crc_ok": False},
        ]
        reason, _, detail = classify_outcome(
            _outcome(n_users=2, users=users), None
        )
        assert reason == CLUSTER_AMBIGUOUS
        assert "0.300" in detail

    def test_everything_healthy_is_crc_fail(self):
        reason, stage, _ = classify_outcome(
            _outcome(), _trace(_root(align_score=9.0, sic_tiers=1))
        )
        assert (reason, stage) == (CRC_FAIL, "crc")


def _data(truth=(), detections=(), outcomes=(), packets=()):
    return {
        "format": "repro-trace/v1",
        "base_ts": 0.0,
        "header": {},
        "truth": list(truth),
        "detections": list(detections),
        "outcomes": list(outcomes),
        "packets": [p.to_dict() for p in packets],
    }


def _truth_row(**overrides):
    base = {
        "node_id": 0,
        "payload": "aabbccdd",
        "start_sample": 1000,
        "channel": 0,
        "spreading_factor": 7,
        "frame_samples": 3072,
        "snr_db": 15.0,
    }
    base.update(overrides)
    return base


class TestAnalyze:
    def test_recovered_by_payload_match(self):
        outcome = _outcome(
            crc_ok=True,
            payload="aabbccdd",
            users=[{"offset_bins": 3.5, "payload": "aabbccdd", "crc_ok": True}],
        )
        detection = {
            "job_id": 0, "key": [0], "channel": 0, "spreading_factor": 7,
            "start_sample": 900, "score": 4.0, "label": "",
        }
        report = analyze(
            _data(truth=[_truth_row()], detections=[detection], outcomes=[outcome])
        )
        assert report.n_recovered == 1
        assert report.packets[0].stage_reached == "recovered"
        assert report.histogram == {}

    def test_not_detected(self):
        report = analyze(_data(truth=[_truth_row()]))
        packet = report.packets[0]
        assert not packet.recovered
        assert packet.reason == NOT_DETECTED
        assert report.histogram == {NOT_DETECTED: 1}

    def test_dispatch_dropped(self):
        detection = {
            "job_id": 5, "key": [5], "channel": 0, "spreading_factor": 7,
            "start_sample": 1100, "score": 4.0, "label": "",
        }
        report = analyze(_data(truth=[_truth_row()], detections=[detection]))
        packet = report.packets[0]
        assert packet.reason == DISPATCH_DROPPED
        assert packet.job_id == 5

    def test_one_payload_claims_one_truth_packet(self):
        # Two identical transmitted payloads, one verified decode: the
        # pool is consumed once, so exactly one packet counts recovered.
        outcome = _outcome(
            crc_ok=True,
            payload="aabbccdd",
            users=[{"offset_bins": 3.5, "payload": "aabbccdd", "crc_ok": True}],
        )
        detection = {
            "job_id": 0, "key": [0], "channel": 0, "spreading_factor": 7,
            "start_sample": 1000, "score": 4.0, "label": "",
        }
        report = analyze(
            _data(
                truth=[_truth_row(), _truth_row(node_id=1, start_sample=9000)],
                detections=[detection],
                outcomes=[outcome],
            )
        )
        assert report.n_recovered == 1
        assert len(report.packets) == 2

    def test_without_truth_reports_per_outcome(self):
        outcomes = [
            _outcome(crc_ok=True, payload="ff00", key=[0]),
            _outcome(key=[1], job_id=1),
        ]
        report = analyze(_data(outcomes=outcomes))
        assert len(report.packets) == 2
        assert report.packets[0].recovered
        assert report.packets[1].reason == CRC_FAIL

    def test_summary_lists_every_packet(self):
        report = analyze(_data(truth=[_truth_row()]))
        text = report.summary()
        assert "1 packets, 0 recovered, 1 lost" in text
        assert NOT_DETECTED in text
        assert "drop-reason histogram" in text

    def test_report_histogram_matches_losses(self):
        report = ForensicsReport(
            packets=[
                PostMortem(
                    index=i, node_id=i, channel=0, spreading_factor=7,
                    start_sample=0, payload=None, recovered=False,
                    reason=CRC_FAIL, stage_reached="crc", job_id=i,
                )
                for i in range(3)
            ]
        )
        assert report.histogram == {CRC_FAIL: 3}


class TestBenchScenario:
    """The standard 20-packet benchmark run, failure-sampled and dissected."""

    @pytest.fixture(scope="class")
    def bench_report(self):
        # The standard single-channel bench scenario: 2 nodes at
        # 0.5 s over 5 s -> 20 transmitted packets, seed 0, SF7.
        source = SyntheticTrafficSource(
            PARAMS,
            [NodeConfig(node_id=i, snr_db=15.0, period_s=0.5) for i in range(2)],
            duration_s=5.0,
            payload_len=PAYLOAD_LEN,
            rng=0,
        )
        config = GatewayConfig(
            params=PARAMS,
            payload_len=PAYLOAD_LEN,
            n_workers=2,
            executor="thread",
            seed=0,
            # The full tier loses one packet here, which the cascade
            # recovers; pinned so a failure trace exists to capture.
            decode_tier="full",
            trace=True,
            trace_sample_rate=0.0,
        )
        return Gateway(config).run(source)

    def test_every_lost_packet_gets_a_reason(self, bench_report, tmp_path):
        path = tmp_path / "bench_trace.jsonl"
        write_trace(bench_report.trace, path)
        report = analyze(load_trace(path))
        assert len(report.packets) == 20
        lost = [p for p in report.packets if not p.recovered]
        assert report.n_recovered + len(lost) == 20
        for packet in lost:
            assert packet.reason is not None
            assert packet.reason != UNKNOWN
            assert packet.stage_reached != ""
        assert sum(report.histogram.values()) == len(lost)

    def test_failure_trace_is_captured(self, bench_report):
        # The committed baseline records one CRC failure for this seed;
        # failure-only sampling must retain exactly the failing jobs.
        failed = [o for o in bench_report.trace.outcomes if not o["crc_ok"]]
        assert failed
        assert len(bench_report.trace.packets) == len(failed)

    def test_cli_prints_post_mortem(self, bench_report, tmp_path, capsys):
        path = tmp_path / "bench_trace.json"
        write_trace(bench_report.trace, path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "packet forensics: 20 packets" in out

    def test_cli_json_mode(self, bench_report, tmp_path, capsys):
        path = tmp_path / "bench_trace.jsonl"
        write_trace(bench_report.trace, path)
        assert main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["packets"]) == 20
        assert payload["recovered"] + sum(payload["histogram"].values()) == 20


class TestCliErrors:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/trace.jsonl"]) == 2
        assert "repro forensics:" in capsys.readouterr().err
