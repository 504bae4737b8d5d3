"""Adaptive data rate (the paper's Sec. 3 "Rate Adaptation").

"LoRaWAN base stations program each client to operate on a suitable data
rate based on its received signal-quality."  This module implements that
control loop: an SNR ladder with provisioned link margin, hysteresis so a
client does not flap between spreading factors on fading wiggles, and an
EWMA of the per-packet SNR reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.phy.params import LoRaParams

#: SNR (dB) required to *assign* each spreading factor.  The spacing is
#: wider than the raw decode-floor ladder (whose steps are only ~2.5 dB):
#: assigning a faster rate shrinks the fade margin AND doubles the symbol
#: rate the FEC must protect, so deployments grade the requirement ~6 dB
#: per step (this is also what puts the paper's low/medium/high SNR
#: regimes on distinct data rates in Fig. 8(a)).
ASSIGNMENT_SNR_DB = {7: 16.0, 8: 8.0, 9: 2.0, 10: -2.0, 11: -6.0}

#: Extra headroom (dB) required before *upgrading* to a faster SF (moving
#: down a SF happens as soon as the smoothed SNR drops below the current
#: assignment's requirement -- losing packets is worse than wasting
#: airtime).
HYSTERESIS_DB = 3.0

#: EWMA coefficient for per-packet SNR reports (1 = last report only).
SMOOTHING = 0.25


def spreading_factor_for_snr(snr_db: float) -> int:
    """Fastest spreading factor the SNR supports under the graded ladder."""
    for sf in range(7, 12):
        if snr_db >= ASSIGNMENT_SNR_DB[sf]:
            return sf
    return 12


@dataclass
class AdrController:
    """Per-client ADR state machine with EWMA smoothing and hysteresis.

    ``initial_sf`` is the assignment before the first report;
    :data:`SMOOTHING` and :data:`HYSTERESIS_DB` set the dynamics.
    """

    initial_sf: int = 12
    _snr_ewma_db: float | None = field(default=None, repr=False)
    _current_sf: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 7 <= self.initial_sf <= 12:
            raise ValueError(f"initial_sf must be 7..12, got {self.initial_sf}")
        self._current_sf = self.initial_sf

    @property
    def spreading_factor(self) -> int:
        """The currently assigned spreading factor."""
        return self._current_sf

    @property
    def smoothed_snr_db(self) -> float | None:
        return self._snr_ewma_db

    def report_snr(self, snr_db: float) -> int:
        """Feed one packet's measured SNR; returns the (new) assignment."""
        if self._snr_ewma_db is None:
            self._snr_ewma_db = float(snr_db)
        else:
            self._snr_ewma_db += SMOOTHING * (snr_db - self._snr_ewma_db)
        target = spreading_factor_for_snr(self._snr_ewma_db)
        if target < self._current_sf:
            # Upgrade (faster SF) only with hysteresis headroom.
            with_hysteresis = spreading_factor_for_snr(
                self._snr_ewma_db - HYSTERESIS_DB
            )
            if with_hysteresis < self._current_sf:
                self._current_sf = with_hysteresis
        elif target > self._current_sf:
            # Downgrade immediately: reliability first.
            self._current_sf = target
        return self._current_sf

    def params_for(self, base: LoRaParams) -> LoRaParams:
        """The client's PHY parameters under the current assignment."""
        return LoRaParams(
            spreading_factor=self._current_sf,
            bandwidth=base.bandwidth,
            preamble_len=base.preamble_len,
            oversampling=base.oversampling,
            carrier_hz=base.carrier_hz,
        )
