"""Closed-loop multi-gateway scenarios: simulator -> server -> simulator.

This module wires the whole subsystem into one measurable experiment --
the E2E the issue demands: N gateways with *different* per-node link
quality all hear the same MAC-simulator deployment, their receptions
stream into a :class:`repro.server.NetworkServer` through one merge,
and the server's ADR downlinks are applied back onto the simulator's
nodes mid-run.  A device with strong links converges to a fast SF, a
weak one to a slow SF -- the Fig. 8(a) regime separation, now produced
by the closed loop instead of an offline controller.

Geometry is expressed as per-gateway SNR offsets
(:class:`GatewayProfile`): gateway ``g`` hears node ``n`` at
``node_snr + offset``.  :class:`MultiGatewayPhy` resolves each slot once
per gateway (union of decodes delivers to the MAC -- uplink macro
diversity) while recording which gateways decoded whom at what SNR, the
ground truth the dedup/best-gateway assertions compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.mac.phy import PhyModel, SingleUserPhy, Transmission
from repro.mac.protocols import OracleMac
from repro.mac.simulator import NetworkSimulator, NodeConfig, SlotResult
from repro.phy.params import LoRaParams
from repro.server.frames import UplinkFrame, encode_uplink_payload
from repro.server.ingest import run_streams
from repro.server.server import NetworkServer, ServerConfig, ServerReport
from repro.utils import RngLike

@dataclass(frozen=True)
class GatewayProfile:
    """One gateway's link geometry: per-node SNR offsets in dB.

    ``default_offset_db`` applies to nodes absent from ``offsets_db`` --
    the "far" attenuation; per-node entries model proximity.
    """

    gateway_id: int
    offsets_db: Dict[int, float] = field(default_factory=dict)
    default_offset_db: float = -4.0

    def offset_for(self, node_id: int) -> float:
        """SNR offset this gateway applies to ``node_id``'s link."""
        return self.offsets_db.get(node_id, self.default_offset_db)


def overlapping_profiles(
    n_gateways: int,
    node_ids: Sequence[int],
    near_offset_db: float = 0.0,
    far_offset_db: float = -4.0,
) -> List[GatewayProfile]:
    """Round-robin geometry: node ``n`` is near gateway ``n % N``.

    Every gateway still hears every node (``far_offset_db`` attenuation,
    not erasure), so each uplink is received by multiple gateways -- the
    overlap that makes dedup and best-gateway selection non-trivial.
    With distinct offsets the max-SNR gateway for node ``n`` is exactly
    ``n % N``: the scenario's ground truth.
    """
    return [
        GatewayProfile(
            gateway_id=g,
            offsets_db={
                n: near_offset_db for n in node_ids if n % n_gateways == g
            },
            default_offset_db=far_offset_db,
        )
        for g in range(n_gateways)
    ]


@dataclass(frozen=True)
class Reception:
    """One gateway's successful decode of one slot transmission."""

    gateway_id: int
    node_id: int
    snr_db: float
    spreading_factor: int


class MultiGatewayPhy(PhyModel):
    """Resolve each slot once per gateway; deliver the union.

    Wraps a single-gateway outcome model and replays every slot through
    it per gateway with that gateway's SNR offsets applied (ascending
    gateway id, for a deterministic RNG draw sequence).  The union of
    per-gateway decodes is what the MAC sees delivered (macro
    diversity); :attr:`last_receptions` records the per-gateway detail
    for the uplink feed and the ground-truth assertions.
    """

    def __init__(self, inner: PhyModel, profiles: Sequence[GatewayProfile]) -> None:
        ids = [p.gateway_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate gateway ids: {ids}")
        if not profiles:
            raise ValueError("need at least one gateway profile")
        self.inner = inner
        self.profiles = {p.gateway_id: p for p in profiles}
        self.last_receptions: List[Reception] = []

    def resolve(
        self, transmissions: List[Transmission], rng: RngLike = None
    ) -> Set[int]:
        """See :meth:`repro.mac.phy.PhyModel.resolve`."""
        self.last_receptions = []
        decoded: Set[int] = set()
        for gateway_id in sorted(self.profiles):
            profile = self.profiles[gateway_id]
            shifted = [
                Transmission(
                    node_id=t.node_id,
                    snr_db=t.snr_db + profile.offset_for(t.node_id),
                    n_payload_bits=t.n_payload_bits,
                    channel=t.channel,
                    spreading_factor=t.spreading_factor,
                )
                for t in transmissions
            ]
            local = self.inner.resolve(shifted, rng=rng)
            decoded |= local
            for t in shifted:
                if t.node_id in local:
                    self.last_receptions.append(
                        Reception(
                            gateway_id=gateway_id,
                            node_id=t.node_id,
                            snr_db=t.snr_db,
                            spreading_factor=(
                                t.spreading_factor
                                if t.spreading_factor is not None
                                else 0
                            ),
                        )
                    )
        return decoded


@dataclass(frozen=True)
class ScenarioReport:
    """Everything a closed-loop run produced."""

    server: ServerReport
    initial_sf: Dict[int, int]
    final_sf: Dict[int, int]
    sf_trajectory: Dict[int, Tuple[int, ...]]
    n_receptions: int
    n_commands: int
    best_gateway_truth: Dict[int, int]

    def moved_faster(self) -> List[int]:
        """Nodes whose final SF is faster (smaller) than their initial."""
        return sorted(
            n
            for n, sf in self.final_sf.items()
            if sf < self.initial_sf.get(n, sf)
        )

    def moved_slower(self) -> List[int]:
        """Nodes whose final SF is slower (larger) than their initial."""
        return sorted(
            n
            for n, sf in self.final_sf.items()
            if sf > self.initial_sf.get(n, sf)
        )


def run_closed_loop(
    sim: NetworkSimulator,
    phy: MultiGatewayPhy,
    server: NetworkServer,
    duration_s: float,
    payload_len: int = 8,
) -> ScenarioReport:
    """Drive the simulator with the server's ADR loop closed over it.

    Per transmission-carrying slot: every gateway reception becomes an
    :class:`UplinkFrame` (``fcnt`` counts the device's transmission
    attempts, payload carries the devaddr/fcnt header), the slot's
    frames flow into the server through :func:`run_streams`, and drained
    downlink commands are applied to the simulator so they bind from the
    next slot.
    """
    fcnt: Dict[int, int] = {}
    seq: Dict[int, int] = {}
    initial_sf = {nid: sim.node_sf(nid) for nid in sim.nodes}
    trajectory: Dict[int, List[int]] = {nid: [sf] for nid, sf in initial_sf.items()}
    n_receptions = 0
    n_commands = 0
    best_truth: Dict[int, Tuple[float, int]] = {}

    def on_slot(result: SlotResult) -> None:
        nonlocal n_receptions, n_commands
        # The device increments FCntUp per transmission *attempt*
        # (retransmissions carry fresh counters in this model, keeping
        # counters strictly monotone).
        slot_fcnt = {}
        for tx in result.transmissions:
            slot_fcnt[tx.node_id] = fcnt.get(tx.node_id, -1) + 1
            fcnt[tx.node_id] = slot_fcnt[tx.node_id]
        streams: Dict[int, List[UplinkFrame]] = {
            gw: [] for gw in phy.profiles
        }
        for rec in phy.last_receptions:
            n_receptions += 1
            frame_fcnt = slot_fcnt[rec.node_id] % (1 << 16)
            streams[rec.gateway_id].append(
                UplinkFrame(
                    gateway_id=rec.gateway_id,
                    device_addr=rec.node_id,
                    fcnt=frame_fcnt,
                    snr_db=rec.snr_db,
                    received_s=result.delivery_s,
                    payload=encode_uplink_payload(
                        rec.node_id, frame_fcnt, payload_len
                    ),
                    spreading_factor=rec.spreading_factor or None,
                    seq=seq.get(rec.gateway_id, 0),
                )
            )
            seq[rec.gateway_id] = seq.get(rec.gateway_id, 0) + 1
            truth = best_truth.get(rec.node_id)
            key = (rec.snr_db, -rec.gateway_id)
            if truth is None or key > (truth[0], -truth[1]):
                best_truth[rec.node_id] = (rec.snr_db, rec.gateway_id)
        run_streams(server, [streams[gw] for gw in sorted(streams)])
        for command in server.drain_commands():
            n_commands += 1
            sim.apply_downlink(command.device_addr, command.spreading_factor)
        for nid in sim.nodes:
            current = sim.node_sf(nid)
            if trajectory[nid][-1] != current:
                trajectory[nid].append(current)

    sim.run(duration_s, on_slot=on_slot)
    report = server.finish()
    return ScenarioReport(
        server=report,
        initial_sf=initial_sf,
        final_sf={nid: sim.node_sf(nid) for nid in sim.nodes},
        sf_trajectory={nid: tuple(t) for nid, t in trajectory.items()},
        n_receptions=n_receptions,
        n_commands=n_commands,
        best_gateway_truth={
            nid: gw for nid, (_, gw) in sorted(best_truth.items())
        },
    )


def build_scenario(
    n_gateways: int = 2,
    node_snrs_db: Sequence[float] = (20.0, 20.0, -4.0, -4.0),
    initial_sf: int = 10,
    period_s: Optional[float] = None,
    payload_bits: int = 64,
    params: Optional[LoRaParams] = None,
    server_config: Optional[ServerConfig] = None,
    near_offset_db: float = 0.0,
    far_offset_db: float = -4.0,
    seed: int = 0,
) -> Tuple[NetworkSimulator, MultiGatewayPhy, NetworkServer]:
    """Assemble a canonical overlapping 2+-gateway deployment.

    Nodes all start at ``initial_sf`` (mid-ladder by default, so ADR has
    room to move in both directions); an :class:`OracleMac` serializes
    transmissions so convergence depends on link quality, not collision
    luck.  ``node_snrs_db[i]`` is node ``i``'s baseline SNR before
    gateway offsets.
    """
    params = params or LoRaParams(spreading_factor=initial_sf)
    node_ids = list(range(len(node_snrs_db)))
    nodes = [
        NodeConfig(
            node_id=nid,
            snr_db=float(node_snrs_db[nid]),
            payload_bits=payload_bits,
            period_s=period_s,
            spreading_factor=initial_sf,
        )
        for nid in node_ids
    ]
    profiles = overlapping_profiles(
        n_gateways, node_ids, near_offset_db, far_offset_db
    )
    phy = MultiGatewayPhy(SingleUserPhy(params=params), profiles)
    sim = NetworkSimulator(
        params=params, phy=phy, mac=OracleMac(), nodes=nodes, rng=seed
    )
    config = server_config or ServerConfig(
        dedup_window_s=2.0 * sim.slot_s,
        adr_initial_sf=initial_sf,
    )
    return sim, phy, NetworkServer(config=config)


def run_scenario(
    n_gateways: int = 2,
    duration_s: float = 200.0,
    **kwargs: object,
) -> ScenarioReport:
    """One-call canonical scenario: build, run closed-loop, report."""
    sim, phy, server = build_scenario(n_gateways=n_gateways, **kwargs)  # type: ignore[arg-type]
    return run_closed_loop(sim, phy, server, duration_s)


__all__ = [
    "GatewayProfile",
    "MultiGatewayPhy",
    "Reception",
    "ScenarioReport",
    "build_scenario",
    "overlapping_profiles",
    "run_closed_loop",
    "run_scenario",
]
