"""A PHY that resolves MAC slots by running the *real* waveform decoder.

:class:`repro.mac.phy.ChoirPhyModel` makes long network sweeps tractable;
this class is its ground truth.  Each node gets a persistent
:class:`repro.hardware.LoRaRadio` (so its crystal offset is stable across
retransmissions, like a real board), every slot's collision is synthesized
at the waveform level, and the full :class:`repro.core.ChoirDecoder` runs
on it.  A node's packet is delivered when a decoded user matches its
offset signature and the symbol stream survives the FEC tolerance.

Use it directly in :class:`repro.mac.NetworkSimulator` for small scenarios
or through :func:`repro.experiments.calibration.run_phy_calibration` to
check the fast model's statistics against it.
"""

from __future__ import annotations

import numpy as np

from repro.channel.collider import CollisionChannel
from repro.core.decoder import ChoirDecoder
from repro.hardware.radio import LoRaRadio
from repro.mac.phy import PhyModel, Transmission
from repro.metrics.accuracy import packet_delivery
from repro.phy.params import LoRaParams
from repro.utils import RngLike, circular_distance, db_to_linear, ensure_rng


class WaveformPhy(PhyModel):
    """Slot resolution by actual collision synthesis + Choir decoding.

    Parameters
    ----------
    params:
        Shared PHY configuration.
    fec_tolerance:
        Fraction of symbol errors the coding chain absorbs before the
        packet CRC fails (matches :func:`repro.metrics.packet_delivery`).
    rng:
        Seeds both the per-node radio draws and the channel noise.
    """

    def __init__(
        self,
        params: LoRaParams,
        fec_tolerance: float = 0.06,
        rng: RngLike = None,
    ) -> None:
        self.params = params
        self.fec_tolerance = fec_tolerance
        self._rng = ensure_rng(rng)
        self._radios: dict[int, LoRaRadio] = {}
        self._channel = CollisionChannel(params, noise_power=1.0)
        self._decoder = ChoirDecoder(params)

    def _radio_for(self, node_id: int) -> LoRaRadio:
        if node_id not in self._radios:
            self._radios[node_id] = LoRaRadio(
                self.params, node_id=node_id, rng=self._rng
            )
        return self._radios[node_id]

    def resolve(self, transmissions: list[Transmission], rng: RngLike = None) -> set[int]:
        """Synthesize the slot's collision and decode it (see PhyModel)."""
        rng = ensure_rng(rng if rng is not None else self._rng)
        if not transmissions:
            return set()
        n_bins = self.params.chips_per_symbol
        n_symbols = max(
            max(t.n_payload_bits for t in transmissions)
            // self.params.spreading_factor,
            1,
        )
        entries = []
        for t in transmissions:
            radio = self._radio_for(t.node_id)
            symbols = rng.integers(0, n_bins, n_symbols)
            amplitude = float(np.sqrt(db_to_linear(t.snr_db)))
            entries.append((radio, symbols, amplitude + 0j))
        packet = self._channel.receive(entries, rng=rng)
        decoded_users = self._decoder.decode(packet.samples, n_symbols)
        delivered: set[int] = set()
        for user, (radio, symbols, _) in zip(packet.users, entries):
            truth_mu = user.true_offset_bins(self.params) % n_bins
            for du in decoded_users:
                if (
                    circular_distance(du.offset_bins, truth_mu, period=n_bins)
                    < 0.5
                    and packet_delivery(du.symbols, symbols, self.fec_tolerance)
                ):
                    delivered.add(radio.node_id)
                    break
        return delivered
