"""LoRaWAN-style network server above N gateways.

The deployment-wide layer the paper's Sec. 3 rate-adaptation story
implies: gateways decode, the network server coordinates.  Uplink
records from every gateway in range are merged into one deterministic
order (:mod:`repro.server.ingest`), get deduplicated to the best-SNR copy
(:mod:`repro.server.dedup`), validated against per-device sessions
(:mod:`repro.server.sessions`) and fed to the ADR control loop
(:mod:`repro.server.adr`), which emits the downlink data-rate commands
the MAC simulator's nodes consume -- closing the loop end to end
(:mod:`repro.server.scenario`).

Quickstart::

    from repro.server import run_scenario

    report = run_scenario(n_gateways=2, duration_s=120.0)
    print(report.final_sf)           # per-device converged SFs
    print(report.moved_faster())     # high-SNR devices sped up
"""

from repro.server.adr import AdrEngine, power_for_headroom
from repro.server.dedup import DeliveredFrame, FrameDeduplicator
from repro.server.frames import (
    FCNT_PERIOD,
    DownlinkCommand,
    UplinkFrame,
    decode_uplink_payload,
    encode_uplink_payload,
    uplink_from_outcome,
    uplinks_from_report,
)
from repro.server.ingest import merge_streams, run_streams
from repro.server.scenario import (
    GatewayProfile,
    MultiGatewayPhy,
    ScenarioReport,
    build_scenario,
    overlapping_profiles,
    run_closed_loop,
    run_scenario,
)
from repro.server.server import (
    DeliveredUplink,
    NetworkServer,
    ServerConfig,
    ServerReport,
)
from repro.server.sessions import DeviceRegistry, DeviceSession

__all__ = [
    "AdrEngine",
    "DeliveredFrame",
    "DeliveredUplink",
    "DeviceRegistry",
    "DeviceSession",
    "DownlinkCommand",
    "FCNT_PERIOD",
    "FrameDeduplicator",
    "GatewayProfile",
    "MultiGatewayPhy",
    "NetworkServer",
    "ScenarioReport",
    "ServerConfig",
    "ServerReport",
    "UplinkFrame",
    "build_scenario",
    "decode_uplink_payload",
    "encode_uplink_payload",
    "merge_streams",
    "overlapping_profiles",
    "power_for_headroom",
    "run_closed_loop",
    "run_scenario",
    "run_streams",
    "uplink_from_outcome",
    "uplinks_from_report",
]
