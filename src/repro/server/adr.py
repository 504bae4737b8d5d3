"""The server-side ADR loop: link measurements in, downlinks out.

The paper's Sec. 3: "base stations program each client to operate on a
suitable data rate based on its received signal-quality."  The per-device
ladder/hysteresis machinery lives in :class:`repro.mac.adr.AdrController`
(one per :class:`repro.server.sessions.DeviceSession`); this engine is
the thin network-side shim that (i) feeds each accepted, deduplicated
uplink's best-copy SNR into the device's controller and (ii) turns
*assignment changes* into :class:`repro.server.frames.DownlinkCommand`
records -- the LinkADRReq emulation the MAC simulator consumes via
:meth:`repro.mac.NetworkSimulator.apply_downlink`.

A command is emitted only when the assignment actually moves, so a
converged deployment goes quiet instead of re-programming every device on
every uplink.  At the fastest SF, remaining headroom above the assignment
requirement is translated into a TX-power step-down (LoRaWAN ADR spends
leftover margin on power before it runs out of data rates).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gateway.telemetry import Telemetry
from repro.mac.adr import ASSIGNMENT_SNR_DB, HYSTERESIS_DB
from repro.server.frames import DownlinkCommand
from repro.server.sessions import DeviceSession

#: TX-power ladder (dBm), strongest first -- EU868-style 2 dB steps.
POWER_LADDER_DBM = (14.0, 12.0, 10.0, 8.0, 6.0, 4.0, 2.0)


def power_for_headroom(headroom_db: float) -> float:
    """Largest power step-down the measured headroom supports.

    ``headroom_db`` is how far the smoothed SNR clears the assignment
    requirement at the current SF; each 2 dB of it buys one rung down the
    ladder (never below the floor).
    """
    steps = max(int(headroom_db // 2.0), 0)
    return POWER_LADDER_DBM[min(steps, len(POWER_LADDER_DBM) - 1)]


class AdrEngine:
    """Per-uplink ADR evaluation over device sessions.

    Not internally locked: :class:`repro.server.NetworkServer` serializes
    access under its own lock.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._telemetry = telemetry
        self._last_power_dbm: Dict[int, float] = {}
        self.n_commands = 0
        self.n_upgrades = 0
        self.n_downgrades = 0

    def _count(self, metric: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(f"adr.{metric}").inc()

    def observe(
        self, session: DeviceSession, snr_db: float, now_s: float
    ) -> List[DownlinkCommand]:
        """Feed one accepted uplink's SNR; return any downlink commands.

        At most one command per call: emitted when the device's assigned
        SF changes, or (at the fastest SF) when the power assignment
        moves.
        """
        before_sf = session.adr.spreading_factor
        after_sf = session.adr.report_snr(snr_db)
        smoothed = session.adr.smoothed_snr_db
        power_dbm = POWER_LADDER_DBM[0]
        if after_sf in ASSIGNMENT_SNR_DB and smoothed is not None:
            # Spend only headroom beyond the upgrade hysteresis band,
            # else power cuts would block the next SF upgrade.
            power_dbm = power_for_headroom(
                smoothed - ASSIGNMENT_SNR_DB[after_sf] - HYSTERESIS_DB
            )
        sf_changed = after_sf != before_sf
        power_changed = (
            self._last_power_dbm.get(session.device_addr, POWER_LADDER_DBM[0])
            != power_dbm
        )
        if not sf_changed and not power_changed:
            return []
        self._last_power_dbm[session.device_addr] = power_dbm
        self.n_commands += 1
        self._count("commands")
        if sf_changed:
            if after_sf < before_sf:
                self.n_upgrades += 1
                self._count("upgrades")
            else:
                self.n_downgrades += 1
                self._count("downgrades")
            reason = "adr-sf"
        else:
            reason = "adr-power"
        return [
            DownlinkCommand(
                device_addr=session.device_addr,
                spreading_factor=after_sf,
                tx_power_dbm=power_dbm,
                issued_s=now_s,
                reason=reason,
            )
        ]
