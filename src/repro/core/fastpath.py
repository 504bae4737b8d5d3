"""Tier-0 fast-path decoder: one dechirp-FFT-argmax per symbol.

The full :class:`repro.core.ChoirDecoder` earns its keep on collisions,
but a clean single-user capture -- the overwhelmingly common case at
realistic duty cycles -- does not need a residual search or candidate
grids.  This module implements the cheap first tier of the decode
cascade (DESIGN.md Sec. 16), in the spirit of the low-complexity CoRa
symbol detector and the Ghanaatian fine-synchronization receiver
(PAPERS.md):

1. **Energy-edge sync** -- an O(len) moving-average power edge locates
   the packet start to within a few samples; no grid search.  Residual
   misalignment shifts preamble and data tones identically, so it folds
   into the aggregate offset estimated next.
2. **Preamble fold-in** -- the preamble's accumulated oversampled
   spectrum gives one aggregate CFO+timing offset ``mu`` (Choir's
   fractional signature, Sec. 4); data windows are derotated by ``mu``
   so every tone lands on an integer FFT bin.
3. **Argmax decode** -- one plain (non-oversampled) FFT per data window;
   the argmax *is* the symbol.  O(N log N) per symbol, nothing else.

The same preamble pass doubles as the **collision discriminator**: a
clean capture shows one dominant accumulated peak whose per-window
position barely wanders, while a collision shows either a second peak
(separated users) or a smeared, window-unstable peak (near-collided
signatures).  :meth:`PreambleEvidence.classify` turns that evidence into
``clean`` / ``ambiguous`` / ``collided`` / ``no-preamble-peak``, which is
what :mod:`repro.core.cascade` escalates on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.core.dechirp import cached_sample_index, dechirp_windows
from repro.core.decoder import DecodedUser
from repro.core.offsets import UserEstimate
from repro.core.peaks import find_peaks
from repro.phy.params import LoRaParams
from repro.profile.profiler import shape_bucket
from repro.utils import circular_distance

#: Discriminator verdicts (see :meth:`PreambleEvidence.classify`).
CLEAN = "clean"
AMBIGUOUS = "ambiguous"
COLLIDED = "collided"
NO_PREAMBLE = "no-preamble-peak"

#: Oversampling for the preamble analysis FFTs.  8x resolves the
#: fractional offset to 1/16 bin after parabolic refinement -- enough for
#: the derotation step -- at a fraction of the decoder's 10x cost.
FASTPATH_OVERSAMPLE = 8

# Calibration of the collision discriminator, on rendered single-user
# captures with full radio impairments (CFO + sub-symbol timing, 10-15 dB
# SNR): a clean capture measures a per-window fractional spread of ~0.02
# bins and a second-peak power ratio of 0 (no secondary above the
# detector floor); see DESIGN.md Sec. 16 and tests/core/test_fastpath.py.

#: Accumulated peak power over the spectrum median below which no
#: preamble is considered present at all (``no-preamble-peak``).
MIN_PEAK_SNR = 2.0

#: Second-to-first accumulated peak *power* ratio above which the window
#: holds two users.  A lone sinc's strongest sidelobe sits at -13 dB
#: (~0.05 in power); 0.15 clears it with margin while still catching a
#: 8 dB-weaker collider.
COLLIDED_PEAK_RATIO = 0.15

#: RMS circular deviation (bins) of per-window peak positions from the
#: aggregate peak above which the evidence is too unstable to trust a
#: single-user read -- near-collided signatures beat against each other
#: and smear the per-window argmax.
AMBIGUOUS_SPREAD_BINS = 0.08


@dataclass(frozen=True)
class PreambleEvidence:
    """What one preamble pass established about a packet window.

    Attributes
    ----------
    start_sample:
        Energy-edge packet start (offset into the analyzed window).
    mu_bins:
        Aggregate CFO+timing offset in FFT bins (parabolic-refined
        accumulated argmax); the fractional part is Choir's signature.
    peak_snr:
        Accumulated peak power over the spectrum median.
    second_peak_ratio:
        Second-to-first accumulated peak power ratio (0 when only one
        peak clears the detector floor).
    fractional_spread_bins:
        RMS circular deviation of per-window peak positions from
        ``mu_bins``.
    n_windows:
        Preamble windows actually accumulated (short windows truncate).
    """

    start_sample: int
    mu_bins: float
    peak_snr: float
    second_peak_ratio: float
    fractional_spread_bins: float
    n_windows: int

    def classify(self) -> str:
        """The discriminator verdict under the calibrated thresholds."""
        if self.n_windows < 2 or self.peak_snr < MIN_PEAK_SNR:
            return NO_PREAMBLE
        if self.second_peak_ratio > COLLIDED_PEAK_RATIO:
            return COLLIDED
        if self.fractional_spread_bins > AMBIGUOUS_SPREAD_BINS:
            return AMBIGUOUS
        return CLEAN


class FastPathDecoder:
    """Single-user dechirp-argmax decoder with preamble CFO fold-in.

    One instance per PHY configuration; stateless across packets, so a
    single instance may serve every job of a (channel, SF) shard.
    """

    def __init__(self, params: LoRaParams) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # Stage 1: O(len) energy-edge synchronization
    # ------------------------------------------------------------------
    def estimate_packet_start(self, samples: np.ndarray) -> int:
        """Locate the packet's rising power edge, sample-coarse.

        A cumulative-sum moving average of ``|x|^2`` (window of n/8
        samples) crosses the midpoint between the leading noise floor
        and the in-packet level roughly half a window before the edge
        has fully entered it; adding half the window back lands within
        a few samples of the true start.  That residual shifts preamble
        and data identically and is absorbed by the ``mu`` fold-in.
        Captures with no leading noise degenerate to a start near 0,
        which is equally fine.
        """
        samples = np.asarray(samples)
        n = self.params.samples_per_symbol
        win = max(n // 8, 4)
        power = np.abs(samples) ** 2
        if power.size <= win:
            return 0
        csum = np.concatenate(([0.0], np.cumsum(power)))
        moving = (csum[win:] - csum[:-win]) / win
        floor = float(moving.min())
        level = float(np.percentile(moving, 90))
        if level <= floor * 1.5:
            return 0  # no discernible edge: signal (or noise) everywhere
        threshold = 0.5 * (floor + level)
        crossings = np.nonzero(moving >= threshold)[0]
        if crossings.size == 0:
            return 0
        return int(crossings[0]) + win // 2

    # ------------------------------------------------------------------
    # Stage 2: preamble analysis (offset estimate + discriminator)
    # ------------------------------------------------------------------
    def analyze_preamble(
        self, samples: np.ndarray, start: int
    ) -> PreambleEvidence:
        """Accumulate the preamble and measure the collision evidence.

        Skips the first preamble window: with sample-coarse sync a
        delayed packet's window 0 straddles the true edge and would
        smear the accumulation the remaining windows keep sharp.
        """
        params = self.params
        n = params.samples_per_symbol
        oversample = FASTPATH_OVERSAMPLE
        windows = dechirp_windows(
            params,
            samples,
            n_windows=params.preamble_len - 1,
            start=start + n,
        )
        n_windows = windows.shape[0]
        if n_windows < 2:
            return PreambleEvidence(
                start_sample=start,
                mu_bins=0.0,
                peak_snr=0.0,
                second_peak_ratio=0.0,
                fractional_spread_bins=0.0,
                n_windows=n_windows,
            )
        with observe.kernel(
            "fastpath.preamble",
            f"N{n * oversample}.M{shape_bucket(n_windows)}",
            fft_count=n_windows,
            fft_points=n_windows * n * oversample,
            bytes_touched=16 * n_windows * n * (oversample + 1),
        ):
            spectra = np.abs(np.fft.fft(windows, n * oversample, axis=-1)) ** 2
            accumulated = spectra.mean(axis=0)
            peak_idx = int(np.argmax(accumulated))
            mu = _refine_parabolic(accumulated, peak_idx) / oversample % n
            peak_snr = float(
                accumulated[peak_idx] / max(float(np.median(accumulated)), 1e-30)
            )
            # Per-window argmax wander around the aggregate peak (bins).
            window_positions = np.argmax(spectra, axis=-1) / oversample
            deviations = circular_distance(window_positions, mu, period=float(n))
            spread = float(np.sqrt(np.mean(np.asarray(deviations) ** 2)))
            # Secondary-peak energy: a second user's tone survives the
            # accumulation as a distinct sinc the sidelobe-aware peak finder
            # separates from the primary.
            peaks = find_peaks(
                np.sqrt(accumulated).astype(complex),
                oversample,
                threshold_snr=4.0,
                max_peaks=2,
            )
            second_ratio = 0.0
            if len(peaks) >= 2 and peaks[0].magnitude > 0:
                second_ratio = float(
                    (peaks[1].magnitude / peaks[0].magnitude) ** 2
                )
        return PreambleEvidence(
            start_sample=start,
            mu_bins=float(mu),
            peak_snr=peak_snr,
            second_peak_ratio=second_ratio,
            fractional_spread_bins=spread,
            n_windows=n_windows,
        )

    # ------------------------------------------------------------------
    # Stage 3: argmax data decode
    # ------------------------------------------------------------------
    def decode(
        self,
        samples: np.ndarray,
        evidence: PreambleEvidence,
        n_data_symbols: int,
    ) -> DecodedUser:
        """Decode the data region under a single-user assumption.

        Each data window is derotated by ``exp(-2j pi mu t / N)`` so the
        user's tone lands on the integer bin equal to its symbol; one
        plain FFT per window and its argmax complete the decode.
        """
        params = self.params
        n = params.samples_per_symbol
        data_start = evidence.start_sample + params.preamble_len * n
        windows = dechirp_windows(
            params, samples, n_windows=n_data_symbols, start=data_start
        )
        with observe.kernel(
            "fastpath.argmax",
            f"N{n}.M{shape_bucket(windows.shape[0])}",
            fft_count=windows.shape[0],
            fft_points=windows.shape[0] * n,
            bytes_touched=32 * windows.shape[0] * n,
        ):
            derotator = np.exp(
                -2j * np.pi * evidence.mu_bins * cached_sample_index(n) / n
            )
            spectra = np.fft.fft(windows * derotator[None, :], axis=-1)
            symbols = np.argmax(np.abs(spectra), axis=-1).astype(int)
        # Channel estimates at mu from the accumulated preamble windows:
        # enough signature for downstream consumers (forensics reads the
        # fractional part; magnitudes gate nothing on this tier).
        preamble = dechirp_windows(
            params,
            samples,
            n_windows=params.preamble_len - 1,
            start=evidence.start_sample + n,
        )
        if preamble.shape[0]:
            probe = np.exp(
                -2j * np.pi * evidence.mu_bins * cached_sample_index(n) / n
            )
            channels = preamble @ probe / n
        else:
            channels = np.zeros(0, dtype=complex)
        estimate = UserEstimate(
            position_bins=float(evidence.mu_bins),
            channels=np.atleast_1d(channels),
        )
        return DecodedUser(estimate=estimate, symbols=symbols)


def _refine_parabolic(power: np.ndarray, index: int) -> float:
    """Sub-sample peak refinement on a circular power spectrum."""
    size = power.size
    left = power[(index - 1) % size]
    center = power[index]
    right = power[(index + 1) % size]
    denom = left - 2.0 * center + right
    if denom >= 0.0 or not np.isfinite(denom):
        return float(index)
    return float(index + 0.5 * (left - right) / denom)
