"""End-to-end tests for the gateway behind a multi-channel, multi-SF plan.

Covers the tentpole's acceptance criteria: the 8-channel mixed-SF run
recovers at least the single-channel per-channel rate, packets on channel
k never decode on channel j, per-shard telemetry shows up in the report,
and per-shard RNG keys keep decodes deterministic across executors.
"""

import numpy as np
import pytest

from repro.gateway import (
    Gateway,
    GatewayConfig,
    SyntheticTrafficSource,
    shard_label,
)
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan, LoRaParams

PAYLOAD_LEN = 4


def _mixed_nodes(plan, sf_set, n_nodes, period_s=0.3, snr_db=15.0):
    """Round-robin node layout over channels and SFs (the CLI's layout)."""
    return [
        NodeConfig(
            node_id=i,
            snr_db=snr_db,
            period_s=period_s,
            channel=i % plan.n_channels,
            spreading_factor=sf_set[i % len(sf_set)],
        )
        for i in range(n_nodes)
    ]


def _run_sharded(plan, sf_set, nodes, duration_s, executor="serial", n_workers=1):
    source = SyntheticTrafficSource(
        LoRaParams(spreading_factor=sf_set[0]),
        nodes,
        duration_s=duration_s,
        payload_len=PAYLOAD_LEN,
        plan=plan,
        rng=0,
    )
    config = GatewayConfig(
        plan=plan,
        sf_set=sf_set,
        payload_len=PAYLOAD_LEN,
        executor=executor,
        n_workers=n_workers,
        seed=0,
    )
    return source, Gateway(config).run(source)


def _single_channel_rate(spreading_factor, period_s=0.3, duration_s=0.6):
    """Recovery rate of the plan-less single-channel gateway on like traffic."""
    params = LoRaParams(spreading_factor=spreading_factor)
    source = SyntheticTrafficSource(
        params,
        [NodeConfig(node_id=0, snr_db=15.0, period_s=period_s)],
        duration_s=duration_s,
        payload_len=PAYLOAD_LEN,
        rng=0,
    )
    config = GatewayConfig(
        params=params, payload_len=PAYLOAD_LEN, executor="serial", seed=0
    )
    report = Gateway(config).run(source)
    assert source.transmitted
    return report.packets_decoded / len(source.transmitted)


@pytest.fixture(scope="module")
def mixed_run():
    """One serial 2-channel SF7+SF8 run shared by the cheap assertions."""
    plan = ChannelPlan.eu868_style(2)
    sf_set = (7, 8)
    nodes = _mixed_nodes(plan, sf_set, 2, period_s=0.25)
    return plan, sf_set, _run_sharded(plan, sf_set, nodes, duration_s=0.5)


class TestAcceptance:
    def test_eight_channel_mixed_sf_recovery(self):
        # The ISSUE's acceptance run: 8 channels, mixed SF7/SF8, one node
        # per channel.  Per-channel recovery must be at least what the
        # single-channel gateway achieves on equivalent traffic.
        plan = ChannelPlan.eu868_style(8)
        sf_set = (7, 8)
        nodes = _mixed_nodes(plan, sf_set, 8, period_s=0.3)
        source, report = _run_sharded(plan, sf_set, nodes, duration_s=0.6)

        sent = source.transmitted
        assert len(sent) >= 8  # every channel carries traffic
        assert report.packets_decoded / len(sent) >= min(
            _single_channel_rate(7), _single_channel_rate(8)
        )
        # Every decode carries its shard's channel/SF tags and landed on
        # the channel that actually transmitted.
        sf_of_channel = {cfg.channel: cfg.spreading_factor for cfg in nodes}
        decoded_payloads = set()
        for outcome in report.outcomes:
            if not outcome.crc_ok:
                continue
            assert sf_of_channel[outcome.channel] == outcome.spreading_factor
            decoded_payloads.add(outcome.payload)
        assert decoded_payloads <= {p.payload for p in sent}
        # Per-channel telemetry made it into the report.
        for channel in range(plan.n_channels):
            assert report.telemetry[f"ch{channel}.ingest.samples"]["value"] > 0


class TestChannelIsolation:
    def test_packet_on_channel_k_never_decodes_on_channel_j(self):
        # All traffic on channel 2 of a 4-channel plan: every detection
        # and every decode must stay on channel 2's shard.
        plan = ChannelPlan.eu868_style(4)
        nodes = [
            NodeConfig(
                node_id=0, snr_db=15.0, period_s=0.25, channel=2, spreading_factor=7
            )
        ]
        source, report = _run_sharded(plan, (7,), nodes, duration_s=0.5)
        assert len(source.transmitted) >= 2
        assert report.packets_decoded == len(source.transmitted)
        assert report.outcomes
        # Band-edge leakage may still *trigger* a neighbouring detector
        # (those windows fail CRC); no payload may ever decode off-channel.
        for outcome in report.outcomes:
            if outcome.crc_ok:
                assert outcome.channel == 2
        for channel in (0, 1, 3):
            assert report.shards[shard_label(channel, 7)]["decoded"] == 0


class TestShardReporting:
    def test_shards_table_covers_every_shard(self, mixed_run):
        plan, sf_set, (source, report) = mixed_run
        expected = {
            shard_label(c, sf) for c in range(plan.n_channels) for sf in sf_set
        }
        assert set(report.shards) == expected
        for row in report.shards.values():
            assert set(row) == {"detected", "decoded", "crc_failed", "dropped"}
        decoded_total = sum(row["decoded"] for row in report.shards.values())
        assert decoded_total == report.packets_decoded > 0

    def test_summary_prints_per_shard_table_and_channelize_stage(self, mixed_run):
        _, _, (_, report) = mixed_run
        text = report.summary()
        assert "per-shard recovery" in text
        assert "all-shards" in text
        assert "channelize" in text
        for label in report.shards:
            assert label in text

    def test_outcomes_decode_the_transmitted_payloads(self, mixed_run):
        _, _, (source, report) = mixed_run
        sent = {(p.channel, p.spreading_factor, p.payload) for p in source.transmitted}
        got = {
            (o.channel, o.spreading_factor, o.payload)
            for o in report.outcomes
            if o.crc_ok
        }
        assert got <= sent
        assert len(got) == report.packets_decoded > 0


class TestDropAccounting:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_evicted_jobs_keep_their_shard_label(self, executor):
        # An overloaded one-worker pool under "newest" drops incoming
        # jobs; every drop must land on its shard's row, not only in the
        # pool-wide total.
        plan = ChannelPlan.eu868_style(2)
        nodes = _mixed_nodes(plan, (7,), 8, period_s=0.05)
        source = SyntheticTrafficSource(
            LoRaParams(spreading_factor=7),
            nodes,
            duration_s=0.5,
            payload_len=PAYLOAD_LEN,
            plan=plan,
            rng=3,
        )
        config = GatewayConfig(
            plan=plan,
            sf_set=(7,),
            payload_len=PAYLOAD_LEN,
            executor=executor,
            n_workers=1,
            queue_capacity=6,
            drop_policy="newest",
            seed=0,
        )
        report = Gateway(config).run(source)
        assert report.packets_dropped > 0
        assert (
            sum(row["dropped"] for row in report.shards.values())
            == report.packets_dropped
        )


class TestDeterminism:
    def test_thread_executor_matches_serial(self, mixed_run):
        # Job submission order is fixed by the scan loop and decode RNG is
        # keyed by (channel, sf, shard_seq), so a threaded pool must
        # reproduce the serial run outcome for outcome.
        plan, sf_set, (_, serial_report) = mixed_run
        nodes = _mixed_nodes(plan, sf_set, 2, period_s=0.25)
        _, threaded_report = _run_sharded(
            plan, sf_set, nodes, duration_s=0.5, executor="thread", n_workers=2
        )

        def keyed(report):
            return {
                o.job_id: (o.channel, o.spreading_factor, o.payload, o.crc_ok)
                for o in report.outcomes
            }

        assert keyed(threaded_report) == keyed(serial_report)
        assert threaded_report.shards == serial_report.shards


class TestConfigValidation:
    def test_sf_set_sorted_and_deduped(self):
        config = GatewayConfig(sf_set=(8, 7, 7))
        assert config.sf_set == (7, 8)

    def test_empty_sf_set_means_params_sf(self):
        config = GatewayConfig(params=LoRaParams(spreading_factor=9), sf_set=())
        assert config.sf_set == (9,)

    def test_legacy_source_rejects_channel_overrides(self):
        with pytest.raises(ValueError, match="ChannelPlan"):
            SyntheticTrafficSource(
                LoRaParams(spreading_factor=7),
                [NodeConfig(node_id=0, snr_db=15.0, channel=1)],
                duration_s=0.2,
            )
