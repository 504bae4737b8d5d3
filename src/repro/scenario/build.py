"""Turn a validated ScenarioSpec into the live objects a run needs.

The builders here are the *only* bridge between the declarative layer and
the simulation stack -- node populations, traffic sources, and multi-channel
gateways all come out of pure functions of ``(spec, n_nodes, variant)``,
so a campaign point is reproducible from the scenario file and a seed
alone, and a test can hand-construct the equivalent config and demand a
byte-identical gateway report (see ``report_digest``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.channel.link import LinkBudget
from repro.channel.pathloss import UrbanPathLoss
from repro.gateway.runtime import Gateway, GatewayConfig
from repro.gateway.sources import SyntheticTrafficSource
from repro.gateway.telemetry import Telemetry
from repro.mac.simulator import NodeConfig
from repro.phy.packet import LoRaFramer
from repro.phy.params import ChannelPlan
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.utils import as_seed_sequence, derive_rng

#: Sub-stream keys under the sweep seed.  Placement gets its own derived
#: stream per (seed, n_nodes) so adding a sweep point never reshuffles
#: the geometry of the others; the source seed is shared across both
#: gateway variants of a point so Choir and the baseline see the *same*
#: air -- the comparison is decoder-only by construction.
GEOMETRY_KEY = 100
SOURCE_KEY = 200


def build_plan(spec: ScenarioSpec) -> ChannelPlan:
    """The channel grid named by the scenario's ``plan`` section."""
    return ChannelPlan.eu868_style(spec.plan.n_channels)


def node_snrs(spec: ScenarioSpec, n_nodes: int, seed: int) -> np.ndarray:
    """Per-node mean SNRs implied by the deployment geometry.

    ``uniform-disc`` draws area-uniform positions in the annulus
    ``[min_distance_m, cell_radius_m]`` (radius via the inverse-CDF
    ``r = sqrt(u * (R^2 - r0^2) + r0^2)``), runs each distance through
    the urban log-distance model and the link budget, and optionally
    adds log-normal shadowing.  ``fixed-snr`` returns a constant array.
    """
    geo = spec.geometry
    if geo.layout == "fixed-snr":
        return np.full(n_nodes, geo.snr_db, dtype=float)
    rng = derive_rng(seed, GEOMETRY_KEY, n_nodes)
    r0sq = geo.min_distance_m**2
    rsq = geo.cell_radius_m**2
    distances = np.sqrt(rng.uniform(0.0, 1.0, n_nodes) * (rsq - r0sq) + r0sq)
    pathloss = UrbanPathLoss(exponent=geo.path_exponent)
    budget = LinkBudget(
        tx_power_dbm=geo.tx_power_dbm,
        penetration_loss_db=geo.penetration_loss_db,
    )
    losses = np.asarray(pathloss.loss_db(distances), dtype=float)
    snrs = np.array([budget.snr_db(loss) for loss in losses])
    if geo.shadowing_sigma_db > 0.0:
        snrs = snrs + rng.normal(0.0, geo.shadowing_sigma_db, n_nodes)
    return snrs


def build_nodes(spec: ScenarioSpec, n_nodes: int, seed: int) -> List[NodeConfig]:
    """The node population for one sweep point.

    Channels and spreading factors are dealt round-robin (or channel
    drawn uniformly under ``channel_policy: uniform``) so offered load
    spreads evenly across the plan's shards -- the deployment-planning
    assignment a real network server's ADR would converge to.
    """
    if n_nodes < 1:
        raise ScenarioError(f"n_nodes must be >= 1, got {n_nodes}")
    snrs = node_snrs(spec, n_nodes, seed)
    traffic = spec.traffic
    n_channels = spec.plan.n_channels
    sfs = traffic.spreading_factors
    if traffic.channel_policy == "uniform":
        chan_rng = derive_rng(seed, GEOMETRY_KEY + 1, n_nodes)
        channels = chan_rng.integers(0, n_channels, n_nodes)
    else:
        channels = np.arange(n_nodes) % n_channels
    return [
        NodeConfig(
            node_id=i,
            snr_db=float(snrs[i]),
            payload_bits=8 * traffic.payload_len,
            period_s=traffic.period_s,
            channel=int(channels[i]),
            spreading_factor=sfs[i % len(sfs)],
        )
        for i in range(n_nodes)
    ]


def source_seed(spec: ScenarioSpec, n_nodes: int, seed: int) -> np.random.SeedSequence:
    """The traffic-source seed for one sweep point (shared by variants).

    Derived by key exactly as :func:`repro.utils.derive_rng` derives
    generators, but returned as the spawnable :class:`SeedSequence` the
    source wants -- so a test can rebuild the identical source by hand.
    """
    base = as_seed_sequence(seed)
    spawn_key = tuple(base.spawn_key) + (SOURCE_KEY, int(n_nodes))
    # keyed derivation needs the raw SeedSequence, not a Generator
    return np.random.SeedSequence(base.entropy, spawn_key=spawn_key)  # noqa: R001


def build_source(
    spec: ScenarioSpec,
    n_nodes: int,
    seed: Optional[int] = None,
    duration_s: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    record_ground_truth: bool = True,
) -> SyntheticTrafficSource:
    """The streaming traffic source for one sweep point.

    Campaigns exist to sweep populations whose IQ must never be resident
    all at once; the source renders only airborne frames, and
    ``sweep.max_active_frames`` guards the promise.
    """
    effective_seed = spec.sweep.seed if seed is None else seed
    return SyntheticTrafficSource(
        params=build_plan(spec).channel_params(min(spec.traffic.spreading_factors)),
        nodes=build_nodes(spec, n_nodes, effective_seed),
        duration_s=spec.sweep.duration_s if duration_s is None else duration_s,
        payload_len=spec.traffic.payload_len,
        chunk_samples=spec.gateway.chunk_samples,
        plan=build_plan(spec),
        rng=source_seed(spec, n_nodes, effective_seed),
        record_ground_truth=record_ground_truth,
        max_active_nodes=spec.sweep.max_active_frames,
        telemetry=telemetry,
    )


def build_gateway_config(
    spec: ScenarioSpec, variant: str = "choir"
) -> GatewayConfig:
    """The multi-channel gateway for one variant of the comparison.

    ``"choir"`` runs the scenario's ``gateway`` section as written;
    ``"baseline"`` overlays the ``baseline`` section's decode tier and
    user cap on the same runtime shape, so the two variants differ only
    in the decoder -- never in channelization, pooling, or detection.
    """
    if variant not in ("choir", "baseline"):
        raise ScenarioError(
            f"gateway variant must be 'choir' or 'baseline', got {variant!r}"
        )
    gw = spec.gateway
    decode_tier = gw.decode_tier
    max_users: Optional[int] = gw.max_users
    if variant == "baseline":
        decode_tier = spec.baseline.decode_tier
        max_users = spec.baseline.max_users
    return GatewayConfig(
        plan=build_plan(spec),
        sf_set=spec.traffic.spreading_factors,
        payload_len=spec.traffic.payload_len,
        n_workers=gw.workers,
        executor=gw.executor,
        queue_capacity=gw.queue_capacity,
        drop_policy=gw.drop_policy,
        detection_pfa=gw.detection_pfa,
        max_users=max_users,
        decode_tier=decode_tier,
        seed=spec.sweep.seed,
    )


def build_gateway(
    spec: ScenarioSpec,
    variant: str = "choir",
    telemetry: Optional[Telemetry] = None,
) -> Gateway:
    """A ready-to-run gateway for one variant of the comparison."""
    return Gateway(build_gateway_config(spec, variant), telemetry=telemetry)


def report_digest(report: Any) -> Dict[str, Any]:
    """A deterministic projection of a gateway report.

    Strips everything wall-clock (timings, latency histograms) and keeps
    everything the decode math determines: ingest counts, per-shard
    counters, and the exact CRC-verified payload bytes in stream order.
    Two runs built from the same scenario -- whether via the loader or a
    hand-constructed config -- must produce *equal* digests; the
    byte-identity test serializes both to JSON and compares the bytes.
    """
    digest: Dict[str, Any] = {
        "samples_in": int(report.samples_in),
        "chunks_in": int(report.chunks_in),
        "samples_evicted": int(report.samples_evicted),
        "packets_detected": int(report.packets_detected),
        "packets_dropped": int(report.packets_dropped),
        "packets_decoded": int(report.packets_decoded),
        "crc_failures": int(report.crc_failures),
        "decode_errors": int(report.decode_errors),
        "decoded_payloads": [p.hex() for p in report.decoded_payloads],
    }
    if report.shards is not None:
        digest["shards"] = {
            label: dict(sorted(counters.items()))
            for label, counters in sorted(report.shards.items())
        }
    return digest


def offered_load_erlangs(spec: ScenarioSpec, n_nodes: int) -> float:
    """Normalized offered load G (frame airtimes per frame time, ALOHA).

    Computed per channel: total frame airtime per second across the
    population, divided across the plan's channels.  The classic pure-
    ALOHA collision-free probability is ``exp(-2G)`` -- printed alongside
    each sweep point so the curve is readable against textbook load.
    """
    plan = build_plan(spec)
    traffic = spec.traffic
    total = 0.0
    for i in range(n_nodes):
        sf = traffic.spreading_factors[i % len(traffic.spreading_factors)]
        params = plan.channel_params(sf)
        n_symbols = LoRaFramer(params).n_symbols_for_payload(traffic.payload_len)
        airtime = (params.preamble_len + n_symbols) * params.symbol_duration
        if traffic.period_s is None:
            rate = 1.0 / airtime
        else:
            rate = 1.0 / traffic.period_s
        total += rate * airtime
    if math.isinf(total):
        return float("inf")
    return total / plan.n_channels
