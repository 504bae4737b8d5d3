"""Frequency-offset estimation: coarse peaks, sub-bin refinement, CFO/TO split.

Implements the paper's Algm. 1 and Secs. 5.1/6:

1. **Coarse**: average the oversampled power spectra of the preamble
   windows, detect peaks -- positions accurate to ~1/oversample of a bin.
2. **Fine**: jointly refine all positions by minimizing the reconstruction
   residual (Eqn. 3-4).  The residual is locally convex around the truth
   (Fig. 4), so cyclic per-coordinate golden-section descent from the
   coarse estimate converges quickly; a Nelder-Mead restart search is also
   available, matching the paper's stochastic descent with random starts.
3. **Delays**: each user's sub-symbol timing offset is recovered by a 1-D
   residual search over the delay-aware window model (the boundary-glitch
   model in :func:`repro.core.chanest.tone_matrix`), realizing Sec. 6.2's
   separate tracking of timing and frequency offsets.  The user's CFO then
   follows as ``cfo = mu + delay`` (Eqn. 5 rearranged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.core.chanest import estimate_channels
from repro.core.dechirp import DEFAULT_OVERSAMPLE, dechirp_windows, oversampled_spectrum
from repro.core.engine import ResidualEngine
from repro.core.peaks import Peak, find_peaks
from repro.core.residual import residual_power
from repro.phy.params import LoRaParams
from repro.utils import RngLike, ensure_rng

#: Largest sub-symbol delay (in samples) the delay search considers.  The
#: beacon-slotted MAC keeps wake-up offsets well under this (Sec. 7.1).
DEFAULT_MAX_DELAY = 64.0


@dataclass
class UserEstimate:
    """Everything Choir learns about one user from the preamble.

    Attributes
    ----------
    position_bins:
        Refined aggregate offset ``mu = cfo - delay`` in FFT bins, in
        ``[0, N)``; its fractional part is the user's tracking signature.
    channels:
        Per-preamble-window complex channel estimates ``h_m``.
    delay_samples:
        Estimated sub-symbol timing offset (0 when the delay search is
        skipped).
    phase_slope_cycles:
        Average channel rotation per window, i.e. the CFO in cycles/window
        (equivalently the CFO's value modulo one bin).
    snr_db:
        Estimated per-user SNR from ``|h|^2`` against the residual noise.
    """

    position_bins: float
    channels: np.ndarray
    delay_samples: float = 0.0
    phase_slope_cycles: float = 0.0
    snr_db: float = 0.0

    @property
    def fractional(self) -> float:
        """Fractional part of the aggregate offset (tracking signature)."""
        return float(self.position_bins % 1.0)

    @property
    def cfo_bins(self) -> float:
        """Estimated CFO in bins: ``mu + delay`` (Eqn. 5 rearranged)."""
        return float(self.position_bins + self.delay_samples)

    @property
    def channel_magnitude(self) -> float:
        """Mean channel magnitude across preamble windows."""
        return float(np.mean(np.abs(self.channels)))

    @property
    def channel_power(self) -> float:
        """Mean channel power across preamble windows."""
        return float(np.mean(np.abs(self.channels) ** 2))

    @property
    def cfo_frac_bins(self) -> float:
        """CFO modulo one bin, from the per-window phase slope."""
        return float(self.phase_slope_cycles % 1.0)

    @property
    def delay_frac_samples(self) -> float:
        """Timing offset modulo one sample: ``(cfo - mu) mod 1`` (Eqn. 5)."""
        return float((self.phase_slope_cycles - self.position_bins) % 1.0)

    def channel_at_window(self, window_index: int) -> complex:
        """Extrapolated channel for a later (data) window.

        Magnitude is the preamble mean; phase advances by the measured
        slope from the preamble's coherent reference.
        """
        n_pre = self.channels.size
        base = np.mean(
            self.channels * np.exp(-2j * np.pi * self.phase_slope_cycles * np.arange(n_pre))
        )
        return complex(base * np.exp(2j * np.pi * self.phase_slope_cycles * window_index))


# ----------------------------------------------------------------------
# Coarse estimation
# ----------------------------------------------------------------------


def coarse_offsets(
    preamble_dechirped: np.ndarray,
    oversample: int = DEFAULT_OVERSAMPLE,
    threshold_snr: float = 4.0,
    max_users: int | None = None,
) -> list[Peak]:
    """Coarse peak positions from noncoherently averaged preamble spectra.

    Averaging the *power* spectra over the preamble windows suppresses the
    noise variance without needing phase coherence (the same accumulation
    Sec. 7.2 uses for below-noise detection).
    """
    spectra = oversampled_spectrum(np.atleast_2d(preamble_dechirped), oversample)
    mean_power = np.mean(np.abs(spectra) ** 2, axis=0)
    # find_peaks works on magnitude; hand it the root of the mean power and
    # keep phase information from the first window for the amplitudes.
    pseudo_spectrum = np.sqrt(mean_power) * np.exp(1j * np.angle(spectra[0]))
    return find_peaks(
        pseudo_spectrum,
        oversample,
        threshold_snr=threshold_snr,
        max_peaks=max_users,
    )


# ----------------------------------------------------------------------
# Fine refinement (Eqn. 4 / Algm. 1)
# ----------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(fun, lo: float, hi: float, tol: float = 1e-4) -> float:
    """Golden-section search for the minimum of a unimodal 1-D function."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def refine_offsets(
    dechirped_windows_arr: np.ndarray,
    coarse_positions: np.ndarray,
    half_width_bins: float = 0.6,
    delays_samples: np.ndarray | None = None,
    n_sweeps: int = 2,
    tol_bins: float = 1e-3,
    method: str = "coordinate",
    rng: RngLike = None,
) -> np.ndarray:
    """Refine offsets to sub-bin accuracy by residual minimization.

    ``method="coordinate"`` (default) performs cyclic coordinate sweeps,
    one offset at a time with the others held fixed -- fast and reliable
    thanks to the local convexity of the residual (Fig. 4) -- routed
    through :class:`repro.core.engine.ResidualEngine`, which scores each
    bracket round as one batched solve.  ``method="coordinate-scalar"``
    runs the original per-trial golden-section loop over
    :func:`repro.core.residual.residual_power`; it is the reference the
    engine path is tested against (agreement within ``tol_bins``).
    ``method="nelder-mead"`` runs the joint simplex search with random
    restarts, mirroring the paper's stochastic-descent description; it is
    slower but jointly optimal, and tests verify both agree.
    """
    coarse_positions = np.atleast_1d(np.asarray(coarse_positions, dtype=float))
    rows = np.atleast_2d(dechirped_windows_arr)
    if coarse_positions.size == 0:
        return coarse_positions
    if method == "coordinate":
        return ResidualEngine(rows).refine(
            coarse_positions,
            half_width_bins=half_width_bins,
            delays_samples=delays_samples,
            n_sweeps=n_sweeps,
            tol_bins=tol_bins,
        )
    if method == "coordinate-scalar":
        positions = coarse_positions.copy()
        for _ in range(n_sweeps):
            for k in range(positions.size):
                def fun(x: float, k: int = k) -> float:
                    trial = positions.copy()
                    trial[k] = x
                    return residual_power(rows, trial, delays_samples)

                positions[k] = golden_section_minimize(
                    fun,
                    positions[k] - half_width_bins,
                    positions[k] + half_width_bins,
                    tol=tol_bins,
                )
        return positions
    if method == "nelder-mead":
        return _refine_nelder_mead(
            rows, coarse_positions, half_width_bins, delays_samples, rng=rng
        )
    raise ValueError(f"unknown refinement method: {method!r}")


def _refine_nelder_mead(
    rows: np.ndarray,
    coarse_positions: np.ndarray,
    half_width_bins: float,
    delays_samples: np.ndarray | None,
    n_restarts: int = 2,
    rng: RngLike = None,
) -> np.ndarray:
    """Joint Nelder-Mead refinement with random restarts."""
    rng = ensure_rng(rng)
    lower = coarse_positions - half_width_bins
    upper = coarse_positions + half_width_bins

    def objective(x: np.ndarray) -> float:
        if np.any(x < lower) or np.any(x > upper):
            return 1e18
        return residual_power(rows, x, delays_samples)

    best_x = coarse_positions.copy()
    best_val = objective(best_x)
    starts = [coarse_positions]
    for _ in range(max(n_restarts - 1, 0)):
        starts.append(coarse_positions + rng.uniform(-0.3, 0.3, coarse_positions.size))
    for start in starts:
        result = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "xatol": 1e-4,
                "fatol": 1e-9,
                "maxiter": 200 * coarse_positions.size,
            },
        )
        if result.fun < best_val:
            best_val = float(result.fun)
            best_x = np.asarray(result.x, dtype=float)
    return best_x


# ----------------------------------------------------------------------
# Delay (timing offset) estimation
# ----------------------------------------------------------------------


def estimate_delays(
    dechirped_windows_arr: np.ndarray,
    positions_bins: np.ndarray,
    max_delay_samples: float = DEFAULT_MAX_DELAY,
    coarse_step: float = 1.0,
    n_passes: int = 2,
    min_improvement: float = 1e-3,
    lobe_tie_rel: float = 1e-3,
) -> np.ndarray:
    """Estimate each user's sub-symbol delay from the boundary glitch.

    For fixed offsets, the residual as a function of one user's delay is
    minimized when the delay-aware window model (phase-jump position and
    magnitude) matches reality.  A coarse grid search followed by a
    golden-section polish recovers the delay to sub-sample accuracy.

    Users are processed strongest-first, holding the others' current delay
    estimates fixed, and the sweep is repeated ``n_passes`` times: the
    first pass's landscape for one user can be flattened by another user's
    still-unmodelled glitch, and the second pass cleans that up (plain
    coordinate descent).  A candidate delay is only accepted when it
    improves the residual by a relative ``min_improvement`` -- a flat
    landscape means the glitch is unobservable (or zero), so the estimate
    stays put rather than chasing noise.

    The glitch *phase* depends only on ``frac(delta)``, so the integer
    lobes of the delay landscape are discriminated solely by the glitch
    head's length -- a weak signal that noise easily inverts.  Among grid
    lobes within a relative ``lobe_tie_rel`` of the best residual the
    search therefore prefers the **smallest** delay (the beacon-slotted
    MAC keeps wake-up offsets small, and a too-large delay corrupts far
    more of the data-stage window model than a too-small one).

    Each user's delay grid is scored as one batched Schur-complement pass
    against a :class:`repro.core.engine.CandidateView` of the other users.
    """
    rows = np.atleast_2d(np.asarray(dechirped_windows_arr))
    positions = np.atleast_1d(np.asarray(positions_bins, dtype=float))
    delays = np.zeros(positions.size)
    channels = np.atleast_2d(estimate_channels(rows, positions))
    strength_order = np.argsort(np.mean(np.abs(channels), axis=0))[::-1]
    # The glitch phase factor exp(2j*pi*(N/2 - delta)) depends only on
    # frac(delta) (and is invisible at integer delays!), so a plain grid
    # over delta misses the minimum entirely.  But frac(delta) is known
    # independently: the per-window channel phase slope measures the CFO
    # modulo one bin, and delta = cfo - mu (Eqn. 5), so
    # frac(delta) = (slope - mu) mod 1.  Search only integer offsets at
    # that fraction, then polish locally.
    fracs = np.zeros(positions.size)
    for k in range(positions.size):
        slope = _phase_slope(channels[:, k])
        fracs[k] = (slope - positions[k]) % 1.0
    engine = ResidualEngine(rows)
    for _ in range(n_passes):
        for k in strength_order:
            k = int(k)
            grid = fracs[k] + np.arange(0.0, max_delay_samples, coarse_step)
            view = engine.view(positions, delays, k)
            mu = float(positions[k])
            current_cost = float(
                view.residuals(np.array([mu]), np.array([max(delays[k], 0.0)]))[0]
            )
            costs = view.residuals(
                np.full(grid.size, mu), np.maximum(grid, 0.0)
            )
            # Occam lobe tie-break: grid is ascending, take the first
            # (smallest-delay) lobe within lobe_tie_rel of the best.
            tied = np.nonzero(
                costs <= float(np.min(costs)) * (1.0 + lobe_tie_rel)
            )[0]
            best = int(tied[0])
            candidate = view.minimize(
                grid[best] - 0.25,
                grid[best] + 0.25,
                tol=0.02,
                vary="delay",
                fixed=mu,
            )
            candidate_cost = float(
                view.residuals(np.array([mu]), np.array([max(candidate, 0.0)]))[0]
            )
            if candidate_cost < current_cost * (1.0 - min_improvement):
                delays[k] = max(candidate, 0.0)
    return delays


# ----------------------------------------------------------------------
# Full preamble pipeline
# ----------------------------------------------------------------------


def _phase_slope(channels: np.ndarray) -> float:
    """Mean rotation (cycles/window) of a per-window channel sequence."""
    channels = np.asarray(channels)
    if channels.size < 2:
        return 0.0
    rotations = channels[1:] * np.conj(channels[:-1])
    mean_rotation = np.sum(rotations)
    if abs(mean_rotation) < 1e-30:
        return 0.0
    return float(np.angle(mean_rotation) / (2.0 * np.pi))


def estimate_offsets(
    params: LoRaParams,
    samples: np.ndarray,
    oversample: int = DEFAULT_OVERSAMPLE,
    threshold_snr: float = 4.0,
    max_users: int | None = None,
    refine: bool = True,
    estimate_timing: bool = True,
    rng: RngLike = None,
) -> list[UserEstimate]:
    """Estimate every discernible user's offset + channel from a preamble.

    ``samples`` must start at the (common) preamble window boundary.
    Windows 1 .. ``preamble_len - 1`` are used; window 0 is skipped because
    a delayed user's transmission has not started for its first ``delay``
    samples, which violates the steady-state window model the estimators
    fit.  Users whose peaks are below the detection threshold are absent
    from the result -- recovering them is the job of the phased SIC
    (:mod:`repro.core.sic`) and the below-noise detector
    (:mod:`repro.core.detection`).
    """
    windows = dechirp_windows(
        params,
        samples,
        n_windows=params.preamble_len - 1,
        start=params.samples_per_symbol,
    )
    if windows.shape[0] == 0:
        return []
    peaks = coarse_offsets(
        windows, oversample, threshold_snr=threshold_snr, max_users=max_users
    )
    if not peaks:
        return []
    positions = np.array([p.position_bins for p in peaks], dtype=float)
    if refine and positions.size:
        positions = refine_offsets(windows, positions, rng=rng)
    delays = (
        estimate_delays(windows, positions)
        if estimate_timing
        else np.zeros(positions.size)
    )
    return build_user_estimates(windows, positions, delays)


def build_user_estimates(
    preamble_windows: np.ndarray,
    positions_bins: np.ndarray,
    delays_samples: np.ndarray | None = None,
) -> list[UserEstimate]:
    """Package per-user channels, phase slopes and SNRs for fixed offsets."""
    rows = np.atleast_2d(preamble_windows)
    positions_bins = np.atleast_1d(np.asarray(positions_bins, dtype=float))
    if delays_samples is None:
        delays_samples = np.zeros(positions_bins.size)
    delays_samples = np.atleast_1d(np.asarray(delays_samples, dtype=float))
    channels = estimate_channels(rows, positions_bins, delays_samples)
    channels = np.atleast_2d(channels)
    residual = residual_power(rows, positions_bins, delays_samples)
    n_total = rows.size
    noise_per_sample = residual / max(n_total, 1)
    estimates = []
    for k in range(positions_bins.size):
        user_channels = channels[:, k]
        snr_linear = np.mean(np.abs(user_channels) ** 2) / max(noise_per_sample, 1e-30)
        estimates.append(
            UserEstimate(
                position_bins=float(positions_bins[k] % rows.shape[-1]),
                channels=user_channels.copy(),
                delay_samples=float(delays_samples[k]),
                phase_slope_cycles=_phase_slope(user_channels),
                snr_db=float(10.0 * np.log10(max(snr_linear, 1e-30))),
            )
        )
    estimates.sort(key=lambda u: u.channel_magnitude, reverse=True)
    return estimates
