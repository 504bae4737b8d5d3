"""Phased successive interference cancellation (paper Sec. 5.2).

Classic SIC peels one transmitter at a time, which leaves leakage between
transmitters of *similar* power; pure joint fitting misses weak users whose
peaks are buried under strong users' side lobes.  Choir's middle road:

* detect every peak discernible in the current residual (a "tier" of
  comparable-power users),
* jointly refine the offsets (and sub-symbol delays) of **all users found
  so far** against the original signal and re-fit their channels (so
  strong users' leakage is modelled, not ignored),
* subtract the full reconstruction and look for newly exposed weak peaks,
* repeat until no peaks remain or a tier budget is exhausted.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.core.chanest import estimate_channels, reconstruct_tones
from repro.core.dechirp import DEFAULT_OVERSAMPLE
from repro.core.engine import CandidateView, ResidualEngine
from repro.core.offsets import (
    UserEstimate,
    _phase_slope,
    build_user_estimates,
    coarse_offsets,
    estimate_delays,
    refine_offsets,
)
from repro.core.residual import residual_power
from repro.utils import circular_distance

#: Closest two users may sit (in bins): a new peak nearer than this to a
#: known user is not a new user, and refinement pulling two users closer
#: merges them (:func:`_merge_duplicates`).
MIN_SEPARATION_BINS = 0.75

#: Ghost-suppression floor, relative to the strongest user's channel.
MIN_RELATIVE_MAGNITUDE = 0.02


def _merge_duplicates(
    positions: np.ndarray,
    delays: np.ndarray,
    windows: np.ndarray,
    min_separation_bins: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse positions the refinement pulled on top of each other.

    Two trial offsets converging to the same tone make the least-squares
    tone matrix ill-conditioned (amplitudes blow up pairwise); keep the
    stronger of any pair closer than ``min_separation_bins``.
    """
    if positions.size < 2:
        return positions, delays
    n_bins = windows.shape[-1]
    channels = np.atleast_2d(estimate_channels(windows, positions, delays))
    strength = np.mean(np.abs(channels), axis=0)
    order = np.argsort(strength)[::-1]
    kept: list[int] = []
    for idx in order:
        if all(
            circular_distance(positions[idx], positions[j], period=n_bins)
            >= min_separation_bins
            for j in kept
        ):
            kept.append(int(idx))
    kept.sort()
    return positions[kept], delays[kept]


def _find_clusters(positions: np.ndarray, n_bins: int, radius: float) -> list[list[int]]:
    """Connected components of users within ``radius`` bins of each other."""
    n = positions.size
    unvisited = set(range(n))
    clusters = []
    while unvisited:
        # Deterministic traversal: seed each component from its smallest
        # index and scan candidates in index order, so cluster emission
        # order never depends on set iteration order.
        seed = min(unvisited)
        unvisited.remove(seed)
        component = [seed]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            near = [
                j
                for j in sorted(unvisited)
                if circular_distance(positions[i], positions[j], period=n_bins)
                <= radius
            ]
            for j in near:
                unvisited.remove(j)
                component.append(j)
                frontier.append(j)
        clusters.append(sorted(component))
    return clusters


def _consolidate_clusters(
    windows: np.ndarray,
    positions: np.ndarray,
    delays: np.ndarray,
    cluster_radius_bins: float = 3.0,
    accept_factor: float = 1.1,
    max_delay: float = 64.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Try replacing each tight user cluster with ONE delay-aware user.

    A single transmitter with a large sub-symbol delay smears its lobe over
    several bins; the coarse stage can fragment that smear into multiple
    spurious "users" whose joint fit is a poor local minimum.  For every
    cluster of users within ``cluster_radius_bins`` of each other, this
    runs a fresh joint (mu, delta) search for a *single* user (holding the
    out-of-cluster users fixed) and keeps the single-user model whenever
    its residual is within ``accept_factor`` of the cluster's -- standard
    penalized model-order selection.

    The whole (mu, delta) grid for a cluster is scored as one
    Schur-complement batch against a
    :class:`repro.core.engine.CandidateView` of the out-of-cluster users.
    """
    if positions.size < 2:
        return positions, delays
    n_bins = windows.shape[-1]
    engine = ResidualEngine(windows)
    attempted: set[tuple[float, ...]] = set()
    while True:
        clusters = [
            c
            for c in _find_clusters(positions, n_bins, cluster_radius_bins)
            if len(c) >= 2
        ]
        cluster = next(
            (
                c
                for c in clusters
                if tuple(np.round(np.sort(positions[c]), 3)) not in attempted
            ),
            None,
        )
        if cluster is None:
            return positions, delays
        attempted.add(tuple(np.round(np.sort(positions[cluster]), 3)))
        keep = np.ones(positions.size, dtype=bool)
        keep[cluster] = False
        others_pos, others_del = positions[keep], delays[keep]
        lo = float(np.min(positions[cluster])) - 0.5
        hi = float(np.max(positions[cluster])) + 0.5
        multi_residual = engine.residual(positions, delays)
        view = CandidateView(engine, others_pos, others_del)
        mu_grid = np.arange(lo, hi + 1e-9, 0.1)
        # Anchor frac(delta) per mu from the candidate's joint-fit
        # phase slope (Eqn. 5) -- candidate_channels returns exactly
        # the candidate's row of the joint fit, batched over the grid.
        cand_channels = view.candidate_channels(mu_grid, None)
        fracs = np.array(
            [
                (_phase_slope(cand_channels[:, c]) - mu_grid[c]) % 1.0
                for c in range(mu_grid.size)
            ]
        )
        delta_steps = np.arange(0.0, max_delay, 2.0)
        mus_flat = np.repeat(mu_grid, delta_steps.size)
        deltas_flat = (fracs[:, None] + delta_steps[None, :]).ravel()
        costs = view.residuals(mus_flat, deltas_flat)
        best_idx = int(np.argmin(costs))
        best_mu = float(mus_flat[best_idx])
        best_delta = float(deltas_flat[best_idx])
        # Polish only within the smooth neighbourhood: the residual
        # oscillates with frac(delta), so a wide bracket would hop lobes.
        best_delta = view.minimize(
            best_delta - 0.3,
            best_delta + 0.3,
            tol=0.02,
            vary="delay",
            fixed=best_mu,
        )
        single_residual = float(
            view.residuals(
                np.array([best_mu]), np.array([max(best_delta, 0.0)])
            )[0]
        )
        if single_residual <= multi_residual * accept_factor:
            positions = np.concatenate([others_pos, [best_mu]])
            delays = np.concatenate([others_del, [max(best_delta, 0.0)]])
    return positions, delays


def _occam_prune(
    windows: np.ndarray,
    positions: np.ndarray,
    delays: np.ndarray,
    neighbor_radius_bins: float = 4.0,
    max_increase: float = 1.08,
) -> tuple[np.ndarray, np.ndarray]:
    """Model-order selection: drop users the remaining model explains.

    A user with a large sub-symbol delay smears its spectral lobe over
    ~``N/delta`` bins; when the noise floor is low the smear's local maxima
    can be admitted as spurious extra "users" clustered around the real
    one.  A spurious user is recognizable because *removing* it barely
    increases the joint fit's residual (its energy is re-absorbed by the
    real neighbor), whereas removing a genuine user costs that user's full
    energy.  Candidates are tested weakest-first and only when another
    user sits within ``neighbor_radius_bins``; a candidate is dropped when
    the residual grows by less than ``max_increase``.
    """
    if positions.size < 2:
        return positions, delays
    n_bins = windows.shape[-1]
    while positions.size >= 2:
        channels = np.atleast_2d(estimate_channels(windows, positions, delays))
        strength = np.mean(np.abs(channels), axis=0)
        order = np.argsort(strength)  # weakest first
        baseline = residual_power(windows, positions, delays)
        dropped = False
        for k in order:
            k = int(k)
            has_neighbor = any(
                j != k
                and circular_distance(positions[k], positions[j], period=n_bins)
                <= neighbor_radius_bins
                for j in range(positions.size)
            )
            if not has_neighbor:
                continue
            keep = np.ones(positions.size, dtype=bool)
            keep[k] = False
            without = residual_power(windows, positions[keep], delays[keep])
            if without <= baseline * max_increase:
                positions, delays = positions[keep], delays[keep]
                dropped = True
                break
        if not dropped:
            break
    return positions, delays


def phased_sic(
    preamble_windows: np.ndarray,
    oversample: int = DEFAULT_OVERSAMPLE,
    threshold_snr: float = 4.0,
    max_tiers: int = 4,
    max_users: int | None = None,
    refine: bool = True,
) -> list[UserEstimate]:
    """Detect and estimate users tier by tier.

    Parameters
    ----------
    preamble_windows:
        ``(n_windows, N)`` dechirped preamble windows.
    threshold_snr:
        Peak threshold relative to the residual's noise level; applied anew
        in each tier, so weak users only need to clear the floor once the
        strong tiers are cancelled.
    max_tiers:
        Upper bound on cancellation rounds.
    refine:
        Refine offsets by residual minimization; ``False`` keeps the
        coarse peak positions (the coarse-only ablation).

    Every tier also fits each user's sub-symbol delay (the boundary-glitch
    model), which is what lets the residual reach the noise floor at high
    SNR instead of bottoming out at the glitch level.

    Returns
    -------
    User estimates sorted by decreasing channel magnitude (strongest
    first), with offsets refined jointly across every discovered user.
    """
    original = np.atleast_2d(np.asarray(preamble_windows))
    residual = original.copy()
    positions = np.zeros(0)
    delays = np.zeros(0)
    n_bins = original.shape[-1]
    for tier in range(max_tiers):
        remaining_budget = None if max_users is None else max_users - positions.size
        if remaining_budget is not None and remaining_budget <= 0:
            break
        with observe.kernel("sic.tier", f"T{tier}"):
            peaks = coarse_offsets(
                residual, oversample, threshold_snr=threshold_snr, max_users=remaining_budget
            )
            new_positions = [
                p.position_bins
                for p in peaks
                if all(
                    circular_distance(p.position_bins, q, period=n_bins) >= MIN_SEPARATION_BINS
                    for q in positions
                )
            ]
            if not new_positions:
                break
            positions = np.concatenate([positions, np.asarray(new_positions, dtype=float)])
            delays = np.concatenate([delays, np.zeros(len(new_positions))])
            if refine:
                positions = refine_offsets(original, positions, delays_samples=delays)
                positions, delays = _merge_duplicates(
                    positions, delays, original, MIN_SEPARATION_BINS
                )
            delays = estimate_delays(original, positions)
            if refine:
                # One more position sweep now that the glitch is modelled.
                positions = refine_offsets(
                    original, positions, delays_samples=delays, half_width_bins=0.2
                )
                positions, delays = _merge_duplicates(
                    positions, delays, original, MIN_SEPARATION_BINS
                )
            channels = estimate_channels(original, positions, delays)
            recon = reconstruct_tones(positions, channels, n_bins, delays)
            residual = original - recon
            # Provenance: per-tier cancellation evidence (Eqn. 3 residual
            # trajectory) for the forensics post-mortem; no-op untraced.
            observe.add_event(
                "sic.tier",
                tier=tier,
                n_new=len(new_positions),
                n_users=int(positions.size),
                residual_power=float(np.mean(np.abs(residual) ** 2)),
            )
    if positions.size == 0:
        return []
    with observe.kernel("sic.finalize", f"K{positions.size}"):
        positions, delays = _consolidate_clusters(original, positions, delays)
        positions, delays = _occam_prune(original, positions, delays)
        estimates = build_user_estimates(original, positions, delays)
    # Ghost suppression: residual junk occasionally clears a tier threshold
    # near strong users; anything more than ~34 dB below the strongest
    # channel is far outside the decodable near-far spread and is dropped.
    strongest = estimates[0].channel_magnitude
    kept = [
        e
        for e in estimates
        if e.channel_magnitude >= MIN_RELATIVE_MAGNITUDE * strongest
    ]
    # Cancellation order (strongest first) and final cluster assignment,
    # as the forensics layer sees them.
    observe.add_event(
        "sic.result",
        n_users=len(kept),
        n_suppressed=len(estimates) - len(kept),
        positions=[round(float(e.position_bins), 4) for e in kept],
        delays=[round(float(e.delay_samples), 4) for e in kept],
    )
    return kept
