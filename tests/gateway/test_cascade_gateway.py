"""Gateway-level cascade tests: parity, telemetry, Prometheus, forensics.

The parity class is the ISSUE's safety acceptance criterion made
executable: on the same synthetic traffic, the cascade gateway must
recover every payload the full-pipeline gateway recovers -- forensics
post-mortems prove no packet flips from recovered to lost, and every
packet the cascade does lose still gets exactly one drop reason.
"""

import numpy as np
import pytest

from repro.core.cascade import DEFAULT_DECODE_TIER
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ShardedGateway,
    ShardedGatewayConfig,
    SyntheticTrafficSource,
)
from repro.gateway.telemetry import parse_prometheus_text
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan, LoRaParams
from repro.trace.export import load_trace, write_trace
from repro.trace.forensics import UNKNOWN, analyze
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN


def _source():
    """The forensics bench scenario: 2 nodes, 0.5 s period over 5 s."""
    return SyntheticTrafficSource(
        PARAMS,
        [NodeConfig(node_id=i, snr_db=15.0, period_s=0.5) for i in range(2)],
        duration_s=5.0,
        payload_len=PAYLOAD_LEN,
        rng=0,
    )


#: The golden ``plan`` digest's traffic (tests/gateway/test_runtime_digest.py):
#: a 2-channel EU868-style plan scanned at SF7 and SF8, so every packet
#: also crosses the other SF's scanner as a cross-SF phantom detection.
WIDEBAND_PLAN = ChannelPlan.eu868_style(2)
WIDEBAND_SF_SET = (7, 8)


def _wideband_source():
    nodes = [
        NodeConfig(
            node_id=i,
            snr_db=15.0,
            period_s=0.2,
            channel=i % 2,
            spreading_factor=WIDEBAND_SF_SET[(i // 2) % 2],
        )
        for i in range(4)
    ]
    return SyntheticTrafficSource(
        LoRaParams(spreading_factor=7),
        nodes,
        duration_s=0.5,
        payload_len=PAYLOAD_LEN,
        plan=WIDEBAND_PLAN,
        rng=5,
    )


def _run(decode_tier, traffic="narrowband"):
    if traffic == "narrowband":
        shape = dict(params=PARAMS, seed=0)
        source = _source()
    else:
        shape = dict(
            plan=WIDEBAND_PLAN, sf_set=WIDEBAND_SF_SET, drop_policy="block", seed=5
        )
        source = _wideband_source()
    config = GatewayConfig(
        payload_len=PAYLOAD_LEN,
        n_workers=2,
        executor="thread",
        decode_tier=decode_tier,
        trace=True,
        trace_sample_rate=0.0,
        **shape,
    )
    return Gateway(config).run(source)


class TestConfigValidation:
    def test_gateway_config_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="decode_tier"):
            GatewayConfig(params=PARAMS, decode_tier="turbo")

    def test_sharded_config_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="decode_tier"):
            ShardedGatewayConfig(sf_set=(7,), decode_tier="turbo")

    def test_default_tier_is_cascade(self):
        assert DEFAULT_DECODE_TIER == "cascade"
        assert GatewayConfig(params=PARAMS).decode_tier == DEFAULT_DECODE_TIER
        assert ShardedGatewayConfig(sf_set=(7,)).decode_tier == DEFAULT_DECODE_TIER


class TestCascadeParity:
    """Full vs cascade on identical traffic: nothing recovered is lost."""

    @pytest.fixture(scope="class")
    def full_report(self):
        return _run("full")

    @pytest.fixture(scope="class")
    def cascade_report(self):
        return _run("cascade")

    @pytest.fixture(scope="class", params=["narrowband", "wideband"])
    def parity_reports(self, request, full_report, cascade_report):
        """(full, cascade) reports on narrowband SF7 or two-SF wideband traffic."""
        if request.param == "narrowband":
            return full_report, cascade_report
        return _run("full", "wideband"), _run("cascade", "wideband")

    def test_cascade_recovers_every_full_payload(self, parity_reports):
        from collections import Counter

        full_report, cascade_report = parity_reports
        full = Counter(full_report.decoded_payloads)
        cascade = Counter(cascade_report.decoded_payloads)
        lost = full - cascade
        assert not lost, f"cascade lost payloads the full path recovers: {lost}"

    def test_forensics_agree_no_packet_flips_to_lost(self, parity_reports, tmp_path):
        full_report, cascade_report = parity_reports
        reports = {}
        for name, report in (("full", full_report), ("cascade", cascade_report)):
            path = tmp_path / f"{name}.jsonl"
            write_trace(report.trace, path)
            reports[name] = analyze(load_trace(path))
        assert len(reports["cascade"].packets) == len(reports["full"].packets)
        assert reports["cascade"].n_recovered >= reports["full"].n_recovered

    def test_every_lost_packet_gets_exactly_one_reason(
        self, cascade_report, tmp_path
    ):
        path = tmp_path / "cascade.jsonl"
        write_trace(cascade_report.trace, path)
        report = analyze(load_trace(path))
        lost = [p for p in report.packets if not p.recovered]
        for packet in lost:
            assert packet.reason is not None
            assert packet.reason != UNKNOWN
        # One histogram bucket per lost packet -- no double counting.
        assert sum(report.histogram.values()) == len(lost)

    def test_summary_renders_tiered_decode_section(self, cascade_report):
        summary = cascade_report.summary()
        assert "tiered decode" in summary
        assert "escalation rate" in summary

    def test_full_summary_omits_tier_section(self, full_report):
        assert "tiered decode" not in full_report.summary()

    def test_tier_counters_account_for_every_window(self, cascade_report):
        counters = cascade_report.telemetry
        attempts = counters["decode.tier0.attempts"]["value"]
        ok = counters["decode.tier0.ok"]["value"]
        escalated = counters.get("decode.escalated", {}).get("value", 0)
        attempted = (
            cascade_report.packets_detected - cascade_report.packets_dropped
        )
        assert attempts == attempted
        # Every Tier-0 attempt either verified on the spot or escalated.
        assert ok + escalated == attempts
        # Reason counters sum to the aggregate escalation counter.
        reasons = sum(
            state["value"]
            for name, state in counters.items()
            if name.startswith("decode.escalated.")
        )
        assert reasons == escalated

    def test_decode_tier_lands_in_trace_header(self, cascade_report):
        assert cascade_report.trace is not None
        assert cascade_report.trace.header["decode_tier"] == "cascade"


class TestShardedPrometheus:
    """Sharded cascade run: per-tier counters survive the Prometheus trip."""

    @pytest.fixture(scope="class")
    def sharded(self):
        plan = ChannelPlan.eu868_style(n_channels=2)
        sf_set = (7, 8)
        nodes = [
            NodeConfig(
                node_id=i,
                snr_db=15.0,
                period_s=0.4,
                channel=i % plan.n_channels,
                spreading_factor=sf_set[i % len(sf_set)],
            )
            for i in range(4)
        ]
        source = SyntheticTrafficSource(
            LoRaParams(spreading_factor=sf_set[0]),
            nodes,
            duration_s=1.2,
            payload_len=PAYLOAD_LEN,
            plan=plan,
            rng=0,
        )
        config = ShardedGatewayConfig(
            plan=plan,
            sf_set=sf_set,
            payload_len=PAYLOAD_LEN,
            seed=0,
            decode_tier="cascade",
        )
        gateway = ShardedGateway(config)
        report = gateway.run(source)
        return gateway, report

    def test_tier0_counters_export_with_shard_labels(self, sharded):
        gateway, report = sharded
        samples = parse_prometheus_text(gateway.telemetry.prometheus())
        labelled = [
            key
            for key in samples
            if key.startswith("repro_decode_tier0_ok_total{")
        ]
        assert labelled, "no shard-labelled tier0 counters exported"
        for key in labelled:
            assert 'channel="' in key and 'sf="' in key
        assert sum(samples[key] for key in labelled) == report.packets_decoded

    def test_round_trip_values_match_snapshot(self, sharded):
        gateway, _ = sharded
        samples = parse_prometheus_text(gateway.telemetry.prometheus())
        snapshot = gateway.telemetry.snapshot()
        # Aggregate counters export unlabelled and survive verbatim.
        assert (
            samples["repro_decode_tier0_attempts_total"]
            == snapshot["decode.tier0.attempts"]["value"]
        )
        # Shard-labelled escalation counters sum to the aggregate.
        labelled = sum(
            value
            for key, value in samples.items()
            if key.startswith("repro_decode_escalated_total{")
        )
        assert labelled == snapshot["decode.escalated"]["value"]

    def test_sharded_report_tier_section(self, sharded):
        _, report = sharded
        assert "tiered decode" in report.summary()
        assert report.packets_decoded > 0
