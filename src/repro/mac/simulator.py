"""Slot-synchronous network simulator tying MAC + PHY + traffic together.

Reproduces the measurement loop behind Figs. 8, 11 and 12: N client nodes
with given link SNRs generate packets (saturated or periodic), a MAC
protocol nominates transmitters per slot, a PHY model resolves each slot's
collision, and the simulator accounts throughput, latency and
transmissions-per-delivered-packet exactly as the paper reports them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mac.phy import PhyModel, Transmission
from repro.mac.protocols import AlohaMac, Mac
from repro.phy.params import VALID_SPREADING_FACTORS, LoRaParams
from repro.utils import RngLike, ensure_rng


@dataclass(frozen=True)
class NodeConfig:
    """Traffic and link configuration of one client node.

    Parameters
    ----------
    node_id:
        Stable identifier.
    snr_db:
        Link SNR at the base station (from :class:`repro.channel.LinkModel`).
    payload_bits:
        Application payload per packet.
    period_s:
        Packet generation period; ``None`` means saturated (a new packet is
        created the moment the previous one is delivered).
    channel:
        Uplink channel index within the network's
        :class:`repro.phy.params.ChannelPlan`.  Nodes on different
        channels never collide; the default single-channel plans keep
        every node on channel 0.
    spreading_factor:
        Per-node SF override (``None`` uses the network-wide
        :class:`repro.phy.params.LoRaParams`); multi-SF populations are
        what the gateway's per-SF scanners demultiplex.
    """

    node_id: int
    snr_db: float
    payload_bits: int = 160
    period_s: float | None = None
    channel: int = 0
    spreading_factor: int | None = None

    def __post_init__(self) -> None:
        # Validated here (not in each consumer) so the scenario loader can
        # surface a population-spec mistake with the node that carries it.
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if self.payload_bits <= 0:
            raise ValueError(f"payload_bits must be positive, got {self.payload_bits}")
        if self.period_s is not None and self.period_s <= 0:
            raise ValueError(
                f"period_s must be positive or None (saturated), got {self.period_s}"
            )
        if self.channel < 0:
            raise ValueError(f"channel must be >= 0, got {self.channel}")
        if (
            self.spreading_factor is not None
            and self.spreading_factor not in VALID_SPREADING_FACTORS
        ):
            raise ValueError(
                f"spreading_factor must be one of {VALID_SPREADING_FACTORS}, "
                f"got {self.spreading_factor}"
            )


@dataclass
class MacMetrics:
    """The three paper metrics plus raw counters."""

    duration_s: float = 0.0
    delivered_packets: int = 0
    delivered_bits: int = 0
    total_transmissions: int = 0
    latencies_s: list[float] = field(default_factory=list)
    per_node_delivered: dict[int, int] = field(default_factory=dict)

    @property
    def throughput_bps(self) -> float:
        """Network throughput in useful payload bits per second."""
        if self.duration_s <= 0:
            return 0.0
        return self.delivered_bits / self.duration_s

    @property
    def mean_latency_s(self) -> float:
        """Mean creation-to-delivery latency."""
        if not self.latencies_s:
            return float("inf")
        return float(np.mean(self.latencies_s))

    @property
    def transmissions_per_packet(self) -> float:
        """Average (re)transmissions spent per delivered packet."""
        if self.delivered_packets == 0:
            return float("inf")
        return self.total_transmissions / self.delivered_packets


@dataclass
class _Packet:
    node_id: int
    created_s: float
    attempts: int = 0


@dataclass(frozen=True)
class SlotResult:
    """What one contended slot looked like, for external observers.

    The network server's closed ADR loop consumes these: each attempted
    transmission (with the SF the node actually used) plus which node ids
    the PHY decoded, stamped with the slot's delivery time.  Only slots
    with at least one attempted transmission are reported.
    """

    slot: int
    now_s: float
    delivery_s: float
    transmissions: tuple[Transmission, ...]
    decoded: frozenset[int]
    delivered: tuple[int, ...]


class NetworkSimulator:
    """Run one MAC + PHY combination over a node population.

    Parameters
    ----------
    params:
        PHY configuration; sets the slot duration (packet airtime).
    phy:
        Outcome model resolving each slot's set of transmissions.
    mac:
        Protocol nominating transmitters per slot.
    nodes:
        Traffic/link configuration per node.
    slot_overhead_s:
        Guard/beacon time added to each slot beyond the packet airtime
        (Choir's beacon and LoRaWAN's RX windows are both ~1 preamble).
    """

    def __init__(
        self,
        params: LoRaParams,
        phy: PhyModel,
        mac: Mac,
        nodes: list[NodeConfig],
        slot_overhead_s: float | None = None,
        rng: RngLike = None,
    ) -> None:
        self.params = params
        self.phy = phy
        self.mac = mac
        self.nodes = {cfg.node_id: cfg for cfg in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("node_ids must be unique")
        self._rng = ensure_rng(rng)
        if isinstance(mac, AlohaMac):
            mac.seed(self._rng)
        self._queues: dict[int, deque[_Packet]] = {
            cfg.node_id: deque() for cfg in nodes
        }
        self._next_arrival: dict[int, float] = {}
        # Downlink-programmed per-node SF overrides (the ADR loop's knob);
        # NodeConfig.spreading_factor seeds the initial assignment.
        self._sf_override: dict[int, int] = {}
        airtime = self.packet_airtime_s(nodes[0].payload_bits if nodes else 160)
        self.slot_s = airtime + (
            slot_overhead_s
            if slot_overhead_s is not None
            else params.preamble_len * params.symbol_duration * 0.5
        )

    # ------------------------------------------------------------------
    def packet_airtime_s(self, payload_bits: int) -> float:
        """Airtime of one frame: preamble + data symbols."""
        n_data_symbols = max(int(np.ceil(payload_bits / self.params.spreading_factor)), 1)
        return (self.params.preamble_len + n_data_symbols) * self.params.symbol_duration

    def _generate_arrivals(self, node: NodeConfig, now: float) -> None:
        """Create pending packets for one node up to the current time."""
        if node.period_s is None:
            if not self._queues[node.node_id]:
                self._queues[node.node_id].append(_Packet(node.node_id, now))
            return
        next_time = self._next_arrival.get(node.node_id, 0.0)
        while next_time <= now:
            self._queues[node.node_id].append(_Packet(node.node_id, next_time))
            next_time += node.period_s
        self._next_arrival[node.node_id] = next_time

    # ------------------------------------------------------------------
    # Downlink command ingestion (the network server's ADR loop)
    # ------------------------------------------------------------------
    def node_sf(self, node_id: int) -> int:
        """The spreading factor ``node_id`` currently transmits at.

        Downlink overrides (:meth:`apply_downlink`) win over the node's
        configured ``spreading_factor``, which wins over the shared
        network params.
        """
        override = self._sf_override.get(node_id)
        if override is not None:
            return override
        configured = self.nodes[node_id].spreading_factor
        if configured is not None:
            return configured
        return self.params.spreading_factor

    def apply_downlink(self, node_id: int, spreading_factor: int) -> None:
        """Program ``node_id`` to a new data rate (LinkADRReq emulation).

        Takes effect from the node's next transmission: its decode floor
        moves along the SF sensitivity ladder via
        :attr:`Transmission.spreading_factor`.
        """
        if node_id not in self.nodes:
            raise ValueError(f"unknown node_id {node_id}")
        if not 7 <= spreading_factor <= 12:
            raise ValueError(
                f"spreading_factor must be 7..12, got {spreading_factor}"
            )
        self._sf_override[node_id] = spreading_factor

    # ------------------------------------------------------------------
    def _resolve_by_channel(self, transmissions: list[Transmission]) -> set[int]:
        """Resolve a slot's transmissions channel by channel.

        Nodes on different uplink channels of the plan occupy disjoint
        spectrum, so only same-channel transmissions contend; the PHY
        outcome model runs once per occupied channel (ascending order for
        a deterministic RNG draw sequence).  A single-channel population
        reduces to exactly one ``resolve`` call, preserving the historical
        behaviour draw for draw.
        """
        by_channel: dict[int, list[Transmission]] = {}
        for tx in transmissions:
            by_channel.setdefault(tx.channel, []).append(tx)
        decoded: set[int] = set()
        for channel in sorted(by_channel):
            decoded |= self.phy.resolve(by_channel[channel], rng=self._rng)
        return decoded

    # ------------------------------------------------------------------
    def run(
        self,
        duration_s: float,
        on_slot: Callable[[SlotResult], None] | None = None,
    ) -> MacMetrics:
        """Simulate ``duration_s`` of network time and return the metrics.

        ``on_slot`` (when given) observes every slot that carried at
        least one transmission, *after* the PHY resolved it and the MAC
        was told -- the hook the network server's closed loop hangs off:
        it may call :meth:`apply_downlink` from inside the callback and
        the new assignment applies from the next slot on.
        """
        metrics = MacMetrics()
        n_slots = max(int(duration_s / self.slot_s), 1)
        for slot in range(n_slots):
            now = slot * self.slot_s
            for node in self.nodes.values():
                self._generate_arrivals(node, now)
            backlogged = [nid for nid, q in self._queues.items() if q]
            if not backlogged:
                continue
            attempted = self.mac.select_transmitters(slot, backlogged, self._rng)
            if not attempted:
                self.mac.on_result(slot, [], set())
                continue
            transmissions = []
            for nid in attempted:
                packet = self._queues[nid][0]
                packet.attempts += 1
                metrics.total_transmissions += 1
                transmissions.append(
                    Transmission(
                        node_id=nid,
                        snr_db=self.nodes[nid].snr_db,
                        n_payload_bits=self.nodes[nid].payload_bits,
                        channel=self.nodes[nid].channel,
                        spreading_factor=self.node_sf(nid),
                    )
                )
            decoded = self._resolve_by_channel(transmissions)
            delivery_time = now + self.slot_s
            delivered: list[int] = []
            for nid in attempted:
                if nid not in decoded:
                    continue
                packet = self._queues[nid].popleft()
                metrics.delivered_packets += 1
                metrics.delivered_bits += self.nodes[nid].payload_bits
                metrics.latencies_s.append(delivery_time - packet.created_s)
                metrics.per_node_delivered[nid] = (
                    metrics.per_node_delivered.get(nid, 0) + 1
                )
                delivered.append(nid)
            self.mac.on_result(slot, list(attempted), decoded)
            if on_slot is not None:
                on_slot(
                    SlotResult(
                        slot=slot,
                        now_s=now,
                        delivery_s=delivery_time,
                        transmissions=tuple(transmissions),
                        decoded=frozenset(decoded),
                        delivered=tuple(delivered),
                    )
                )
        metrics.duration_s = n_slots * self.slot_s
        return metrics
