"""Streaming gateway runtime: continuous IQ ingest + parallel decode.

The base-station-side subsystem (paper Secs. 4-7 assume one): a
continuous sample stream is ingested in chunks, packets are detected over
a ring buffer, and detected windows are decoded by a bounded worker pool
with explicit backpressure.  Every stage reports telemetry.

Quick start::

    from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
    from repro.mac import NodeConfig
    from repro.phy import LoRaParams

    params = LoRaParams(spreading_factor=7)
    config = GatewayConfig(params=params, n_workers=4, seed=0)
    source = SyntheticTrafficSource(
        params,
        nodes=[NodeConfig(node_id=i, snr_db=15.0, period_s=0.5) for i in range(4)],
        duration_s=5.0,
        rng=0,
    )
    report = Gateway(config).run(source)
    print(report.summary())

Multi-channel quick start (8 channels, mixed SF7/SF8, one shared pool)
-- the same runtime with a channel plan in front::

    from repro.phy import ChannelPlan

    plan = ChannelPlan.eu868_style(8)
    config = GatewayConfig(plan=plan, sf_set=(7, 8), n_workers=4, seed=0)
    source = SyntheticTrafficSource(
        LoRaParams(spreading_factor=7),
        nodes=[
            NodeConfig(node_id=i, snr_db=15.0, period_s=0.5,
                       channel=i % 8, spreading_factor=7 + i % 2)
            for i in range(16)
        ],
        duration_s=5.0,
        plan=plan,
        rng=0,
    )
    report = Gateway(config).run(source)
    print(report.summary())  # includes the per-shard recovery table
"""

from repro.gateway.channelizer import (
    DEFAULT_TAPS_PER_BRANCH,
    PolyphaseChannelizer,
    prototype_filter,
    upconvert_to_channel,
)
from repro.gateway.ring import SampleRing
from repro.gateway.runtime import Gateway, GatewayConfig, GatewayReport, StreamScanner
from repro.gateway.sources import (
    DEFAULT_CHUNK_SAMPLES,
    IqFileSource,
    SampleSource,
    SyntheticTrafficSource,
    TransmittedPacket,
)
from repro.gateway.telemetry import (
    DEFAULT_HISTOGRAM_CAP,
    Counter,
    DurationHistogram,
    Gauge,
    Telemetry,
    clock,
    parse_prometheus_text,
    shard_label,
)
from repro.gateway.workers import (
    DROP_POLICIES,
    EXECUTORS,
    DecodeJob,
    DecodeOutcome,
    DecodeWorkerPool,
    UserResult,
    decode_packet_window,
)

#: Former names of the multi-channel runtime, now the one :class:`Gateway`.
ShardedGateway = Gateway
ShardedGatewayConfig = GatewayConfig

__all__ = [
    "Counter",
    "DEFAULT_CHUNK_SAMPLES",
    "DEFAULT_HISTOGRAM_CAP",
    "DEFAULT_TAPS_PER_BRANCH",
    "DROP_POLICIES",
    "DecodeJob",
    "DecodeOutcome",
    "DecodeWorkerPool",
    "DurationHistogram",
    "EXECUTORS",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "Gauge",
    "IqFileSource",
    "PolyphaseChannelizer",
    "SampleRing",
    "SampleSource",
    "ShardedGateway",
    "ShardedGatewayConfig",
    "StreamScanner",
    "SyntheticTrafficSource",
    "Telemetry",
    "TransmittedPacket",
    "UserResult",
    "clock",
    "decode_packet_window",
    "parse_prometheus_text",
    "prototype_filter",
    "shard_label",
    "upconvert_to_channel",
]
