"""Multi-spreading-factor demultiplexing (paper Sec. 5.2, note 4).

Chirps of different spreading factors are (quasi-)orthogonal: dechirping a
mixed capture with SF ``s``'s down-chirp collapses only the SF-``s``
transmissions into tones, while other SFs stay spread across the band as
residual chirps.  A LoRaWAN gateway already exploits this to decode one
packet per SF in parallel; Choir composes with it -- the base station
dechirps the stream once per active SF and runs the collision decoder on
each resulting branch, so `5 sensors at SFs {7, 7, 8, 8, 9}` decode as a
2-collision at SF7, a 2-collision at SF8 and a singleton at SF9.

The branch decoders see each other's transmissions as wideband
chirp-shaped interference whose per-bin power is the aggregate power
spread over ``2**SF`` bins -- a small SNR penalty rather than a collision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.decoder import ChoirDecoder, DecodedUser
from repro.phy.chirp import delayed_chirp_train
from repro.phy.params import LoRaParams


def reconstruct_user_waveform(
    params: LoRaParams,
    user: DecodedUser,
    include_preamble: bool = True,
) -> np.ndarray:
    """Rebuild a decoded user's unit-amplitude transmit waveform.

    Uses the estimated sub-symbol delay and CFO (``cfo = mu + delay``,
    Eqn. 5) to re-render the frame exactly as the channel delivered it, up
    to the complex channel scale -- which callers fit per window against
    the capture before subtracting (so slow phase drift from any residual
    CFO error cannot accumulate).
    """
    estimate = user.estimate
    head = [0] * params.preamble_len if include_preamble else []
    frame_symbols = np.concatenate(
        [np.asarray(head, dtype=int), np.asarray(user.symbols, dtype=int)]
    )
    clean = delayed_chirp_train(params, frame_symbols, estimate.delay_samples)
    cfo_hz = params.bins_to_hz(estimate.cfo_bins)
    t = np.arange(clean.size) / params.sample_rate
    return clean * np.exp(2j * np.pi * cfo_hz * t)


def subtract_branch(
    capture: np.ndarray,
    params: LoRaParams,
    users: tuple[DecodedUser, ...] | list[DecodedUser],
) -> np.ndarray:
    """Cancel one SF branch's decoded users from the raw capture.

    Per user, the unit waveform is re-rendered and a *per-window* complex
    scale is least-squares fitted against the capture, then subtracted --
    cross-SF SIC, so weaker branches see less chirp-shaped interference.
    """
    residual = np.array(capture, dtype=complex, copy=True)
    n = params.samples_per_symbol
    for user in users:
        unit = reconstruct_user_waveform(params, user)
        usable = min(unit.size, residual.size)
        n_windows = usable // n
        for m in range(n_windows):
            sl = slice(m * n, (m + 1) * n)
            u = unit[sl]
            energy = np.vdot(u, u).real
            if energy < 1e-12:
                continue
            scale = np.vdot(u, residual[sl]) / energy
            residual[sl] -= scale * u
    return residual


@dataclass(frozen=True)
class SfBranchResult:
    """Everything decoded on one spreading factor's branch."""

    spreading_factor: int
    users: tuple[DecodedUser, ...]

    @property
    def n_users(self) -> int:
        """Number of users decoded at this spreading factor."""
        return len(self.users)


class MultiSfDecoder:
    """Run Choir independently per active spreading factor.

    Parameters
    ----------
    bandwidth / preamble_len:
        Shared across all branches (the LoRaWAN channel is common; only
        the spreading factor differs per client).
    spreading_factors:
        The SFs to demultiplex.  Each gets its own :class:`LoRaParams`
        (hence its own symbol length ``2**SF / BW``) and its own
        :class:`ChoirDecoder`.
    """

    def __init__(
        self,
        spreading_factors: tuple[int, ...] = (7, 8, 9),
        bandwidth: float = 125_000.0,
        preamble_len: int = 8,
        threshold_snr: float = 4.0,
    ) -> None:
        if not spreading_factors:
            raise ValueError("at least one spreading factor is required")
        if len(set(spreading_factors)) != len(spreading_factors):
            raise ValueError("spreading factors must be distinct")
        self.branches: dict[int, tuple[LoRaParams, ChoirDecoder]] = {}
        for sf in spreading_factors:
            params = LoRaParams(
                spreading_factor=sf, bandwidth=bandwidth, preamble_len=preamble_len
            )
            self.branches[sf] = (params, ChoirDecoder(params, threshold_snr=threshold_snr))

    def params_for(self, spreading_factor: int) -> LoRaParams:
        """The PHY parameters of one branch."""
        return self.branches[spreading_factor][0]

    def decode(
        self,
        samples: np.ndarray,
        n_data_symbols: dict[int, int],
        max_users: int | None = None,
        cancel_across_sf: bool = True,
    ) -> list[SfBranchResult]:
        """Demultiplex and decode a mixed-SF capture.

        Parameters
        ----------
        samples:
            The raw base-station capture (all SFs superimposed, common
            sample rate = the shared bandwidth).
        n_data_symbols:
            Per-SF number of data symbols to decode (frames at different
            SFs carry different symbol counts for the same payload).
        cancel_across_sf:
            Apply cross-SF SIC: every branch first decodes the raw capture
            independently, then each branch is re-decoded with every
            *other* branch's reconstructed waveforms subtracted.  Because
            each subtraction is a per-window projection it can only remove
            power, so symbol errors in a first-pass reconstruction cannot
            inject interference into the second pass -- they just cancel
            less.  Orthogonality makes the cross-SF penalty small but not
            zero; cancellation recovers the rest.

        Returns
        -------
        One :class:`SfBranchResult` per configured spreading factor (empty
        user list when nothing was active on that SF).
        """
        active = [sf for sf in self.branches if n_data_symbols.get(sf, 0) > 0]
        results: dict[int, SfBranchResult] = {
            sf: SfBranchResult(spreading_factor=sf, users=())
            for sf in self.branches
        }
        # Pass 1: every branch decodes the raw capture independently.
        for sf in active:
            _, decoder = self.branches[sf]
            users = decoder.decode(samples, n_data_symbols[sf], max_users=max_users)
            results[sf] = SfBranchResult(spreading_factor=sf, users=tuple(users))
        if not cancel_across_sf or len(active) <= 1:
            return [results[sf] for sf in self.branches]
        # Pass 2: re-decode each branch against the capture with every
        # *other* branch's pass-1 reconstruction removed.
        pass1 = dict(results)
        for sf in active:
            _, decoder = self.branches[sf]
            cleaned = np.asarray(samples, dtype=complex)
            for other in active:
                if other == sf:
                    continue
                cleaned = subtract_branch(
                    cleaned, self.branches[other][0], pass1[other].users
                )
            users = decoder.decode(cleaned, n_data_symbols[sf], max_users=max_users)
            results[sf] = SfBranchResult(spreading_factor=sf, users=tuple(users))
        return [results[sf] for sf in self.branches]


def cross_sf_interference_penalty_db(
    own_sf: int, other_sf: int, other_power_ratio: float = 1.0
) -> float:
    """SNR penalty an SF branch pays for a concurrent other-SF transmitter.

    Dechirping with the wrong SF leaves the foreign signal spread over the
    band: per dechirped bin it contributes roughly ``P_other / 2**own_sf``
    of extra noise-like power, i.e. an SNR penalty of
    ``10*log10(1 + P_other/P_noise / 2**own_sf)`` (small for the power
    ratios LP-WANs see -- the quantitative face of "orthogonality").
    """
    spread = other_power_ratio / (1 << own_sf)
    return float(10.0 * np.log10(1.0 + spread))
