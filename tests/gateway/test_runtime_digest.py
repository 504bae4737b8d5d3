"""Golden report digests: the one gateway runtime reproduces recorded runs.

``runtime_digests.json`` holds :func:`repro.scenario.build.report_digest`
of four runs recorded before the single- and multi-channel receive loops
were merged into one :class:`repro.gateway.Gateway`:

* ``narrowband_full`` / ``narrowband_cascade`` -- one SF7 channel's
  baseband, four colliding nodes, serial decode on the ``full`` and
  ``cascade`` tiers.  Those runs had no per-shard table, so the check
  drops the ``shards`` key the merged runtime now always adds.
* ``plan`` -- a 2-channel EU868-style plan scanned at SF7 and SF8; the
  serial, thread and process executors all produced this digest, and
  must still match it in full.
"""

import json
from pathlib import Path

import pytest

from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan, LoRaParams
from repro.scenario.build import report_digest

PAYLOAD_LEN = 4

GOLDEN = json.loads((Path(__file__).with_name("runtime_digests.json")).read_text())


def _narrowband_digest(decode_tier: str) -> dict:
    params = LoRaParams(spreading_factor=7)
    nodes = [
        NodeConfig(node_id=i, snr_db=15.0 - i, period_s=0.12) for i in range(4)
    ]
    source = SyntheticTrafficSource(
        params, nodes, duration_s=0.8, payload_len=PAYLOAD_LEN, rng=3
    )
    config = GatewayConfig(
        params=params,
        payload_len=PAYLOAD_LEN,
        executor="serial",
        decode_tier=decode_tier,
        seed=3,
    )
    return report_digest(Gateway(config).run(source))


def _plan_digest(executor: str) -> dict:
    plan = ChannelPlan.eu868_style(2)
    sf_set = (7, 8)
    nodes = [
        NodeConfig(
            node_id=i,
            snr_db=15.0,
            period_s=0.2,
            channel=i % 2,
            spreading_factor=sf_set[(i // 2) % 2],
        )
        for i in range(4)
    ]
    source = SyntheticTrafficSource(
        LoRaParams(spreading_factor=7),
        nodes,
        duration_s=0.5,
        payload_len=PAYLOAD_LEN,
        plan=plan,
        rng=5,
    )
    config = GatewayConfig(
        plan=plan,
        sf_set=sf_set,
        payload_len=PAYLOAD_LEN,
        executor=executor,
        n_workers=1 if executor == "serial" else 2,
        seed=5,
    )
    return report_digest(Gateway(config).run(source))


@pytest.mark.parametrize("decode_tier", ["full", "cascade"])
def test_narrowband_digest_matches_golden(decode_tier):
    digest = _narrowband_digest(decode_tier)
    shards = digest.pop("shards")
    assert digest == GOLDEN[f"narrowband_{decode_tier}"]
    # The new per-shard table is the one SF7 shard of channel 0.
    assert shards == {
        "ch0.sf7": {
            "crc_failed": digest["crc_failures"],
            "decoded": digest["packets_decoded"],
            "detected": digest["packets_detected"],
            "dropped": digest["packets_dropped"],
        }
    }


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_plan_digest_matches_golden(executor):
    assert _plan_digest(executor) == GOLDEN["plan"]
