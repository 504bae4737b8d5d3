"""Choir: decoding LP-WAN collisions and extending range via hardware offsets.

A from-scratch Python reproduction of *"Empowering Low-Power Wide Area
Networks in Urban Settings"* (SIGCOMM 2017): the LoRa chirp-spread-spectrum
PHY, client hardware-imperfection models, an urban wireless channel, the
Choir collision decoder (offset estimation, phased SIC, user tracking,
below-noise team decoding), MAC-layer simulation against LoRaWAN
ALOHA/Oracle baselines, an uplink MU-MIMO comparator, and the correlated
sensor-data substrate behind the range-extension results.

Quick start::

    from repro import (
        ChoirDecoder, CollisionChannel, LoRaParams, LoRaRadio, ensure_rng,
    )

    params = LoRaParams(spreading_factor=8)
    rng = ensure_rng(0)
    radios = [LoRaRadio(params, node_id=i, rng=rng) for i in range(3)]
    channel = CollisionChannel(params)
    packet = channel.receive(
        [(r, rng.integers(0, 256, 20), 10 + 0j) for r in radios], rng=rng
    )
    users = ChoirDecoder(params).decode(packet.samples, 20)
    for user in users:
        print(f"offset {user.offset_bins:.2f} bins -> {user.symbols[:5]}")
"""

from repro.phy import LoRaParams, LoRaFramer, CssModulator, CssDemodulator
from repro.hardware import AdcModel, LoRaRadio, OscillatorModel, TimingModel
from repro.channel import (
    CollisionChannel,
    FlatFadingChannel,
    LinkBudget,
    LinkModel,
    ReceivedPacket,
    UrbanPathLoss,
)
from repro.core import ChoirDecoder, DecodedUser
from repro.gateway import Gateway, GatewayConfig, GatewayReport
from repro.mac import (
    AlohaMac,
    ChoirMac,
    ChoirPhyModel,
    MuMimoPhyModel,
    NetworkSimulator,
    NodeConfig,
    OracleMac,
    SingleUserPhy,
)
from repro.mimo import ZfMimoDecoder, decode_choir_multiantenna, receive_multiantenna
from repro.server import NetworkServer, ServerConfig
from repro.sensing import EnvironmentField, SensorNode
from repro.deployment import Building, CampusTestbed, Position
from repro.utils.rng import RngLike, ensure_rng

__version__ = "1.0.0"

__all__ = [
    "LoRaParams",
    "LoRaFramer",
    "CssModulator",
    "CssDemodulator",
    "AdcModel",
    "LoRaRadio",
    "OscillatorModel",
    "TimingModel",
    "CollisionChannel",
    "FlatFadingChannel",
    "LinkBudget",
    "LinkModel",
    "ReceivedPacket",
    "UrbanPathLoss",
    "ChoirDecoder",
    "DecodedUser",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "AlohaMac",
    "OracleMac",
    "ChoirMac",
    "ChoirPhyModel",
    "MuMimoPhyModel",
    "SingleUserPhy",
    "NetworkServer",
    "NetworkSimulator",
    "NodeConfig",
    "ServerConfig",
    "ZfMimoDecoder",
    "decode_choir_multiantenna",
    "receive_multiantenna",
    "EnvironmentField",
    "SensorNode",
    "Building",
    "CampusTestbed",
    "Position",
    "RngLike",
    "ensure_rng",
    "__version__",
]
