"""The end-to-end Choir receiver.

:class:`ChoirDecoder` ties the pipeline together (paper Secs. 4-7):

* estimate every discernible user's offset + channel from the preamble with
  phased SIC (:func:`repro.core.sic.phased_sic`),
* decode each data window with tiered per-user matched filters and joint
  least-squares re-fit/subtraction -- the fractional offset ``mu_k`` in the
  matched filter *is* the paper's fractional-part tracking: each user's
  filter only rings up for tones carrying that user's signature,
* for below-range teams, detect via preamble accumulation and decode the
  shared symbols with the ML joint decoder (Eqn. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from repro.core.chanest import data_column, solve_channels
from repro.core.dechirp import (
    DEFAULT_OVERSAMPLE,
    cached_sample_index,
    dechirp_windows,
    evaluate_spectrum_at,
    oversampled_spectrum,
)
from repro.core.detection import (
    accumulate_preamble,
    align_to_window_grid,
    sliding_packet_search,
)
from repro.core.peaks import find_peaks
from repro.core.joint_ml import TeamMember, joint_ml_decode, template_correlation_decode
from repro.core.offsets import UserEstimate, build_user_estimates, refine_offsets
from repro.core.sic import _merge_duplicates, phased_sic
from repro.core.tracking import ConstrainedClusterer, centroids_from_estimates
from repro.phy.packet import DecodedFrame, LoRaFramer
from repro.phy.params import LoRaParams
from repro.trace import context as trace_context
from repro.utils import circular_distance, ensure_rng
from repro.utils.rng import RngLike

#: Data-stage algorithms accepted by :meth:`ChoirDecoder.decode`.  Typed as
#: a ``Literal`` so mypy rejects a misspelled method at the call site; the
#: runtime check against :data:`DECODE_METHODS` covers untyped callers.
DecodeMethod = Literal["sic", "clustering"]

#: Team-decode algorithms accepted by :meth:`ChoirDecoder.decode_team`.
TeamDecodeMethod = Literal["template", "members"]

DECODE_METHODS: tuple[str, ...] = get_args(DecodeMethod)
TEAM_DECODE_METHODS: tuple[str, ...] = get_args(TeamDecodeMethod)


@dataclass
class DecodedUser:
    """One disentangled transmitter: its identity signature and data."""

    estimate: UserEstimate
    symbols: np.ndarray

    @property
    def offset_bins(self) -> float:
        """Aggregate spectral offset (in FFT bins) identifying this user."""
        return self.estimate.position_bins

    @property
    def fractional(self) -> float:
        """Fractional part of the offset (the collision-resolving signature)."""
        return self.estimate.fractional

    def decode_payload(self, framer: LoRaFramer, payload_len: int) -> DecodedFrame:
        """Run the LoRa decode chain on this user's symbol stream."""
        return framer.decode(self.symbols, payload_len)


@dataclass
class TeamDecodeResult:
    """Result of decoding a below-range team transmission."""

    detected: bool
    symbols: np.ndarray
    start_window: int
    n_members_detected: int
    score: float


class ChoirDecoder:
    """Single-antenna collision decoder.

    Parameters
    ----------
    params:
        PHY configuration shared with the clients.
    oversample:
        Zero-padding factor for coarse peak analysis (paper uses 10).
    threshold_snr:
        Peak detection threshold (multiple of the spectral noise level).
    tier_ratio_db:
        Users within this many dB of the strongest *remaining* user are
        demodulated in the same SIC tier (Sec. 5.2's "phases").
    refine:
        Enable the sub-bin residual-minimization refinement; disabling it
        reproduces the coarse-only ablation.
    """

    def __init__(
        self,
        params: LoRaParams,
        oversample: int = DEFAULT_OVERSAMPLE,
        threshold_snr: float = 4.0,
        tier_ratio_db: float = 9.0,
        refine: bool = True,
        rng: RngLike = None,
    ) -> None:
        self.params = params
        self.oversample = oversample
        self.threshold_snr = threshold_snr
        self.tier_ratio_db = tier_ratio_db
        self.refine = refine
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def synchronize(self, samples: np.ndarray) -> np.ndarray:
        """Align an arbitrarily-shifted capture to the window grid.

        Real SDR captures start at a random sample; this trims the leading
        samples so the preamble's window grid lines up (to within a
        fraction of a window -- the per-user delay estimation absorbs the
        rest).  Use before :meth:`decode` when the capture is not already
        beacon-aligned.
        """
        offset, _ = align_to_window_grid(self.params, samples)
        return np.asarray(samples)[offset:]

    # ------------------------------------------------------------------
    # Preamble stage
    # ------------------------------------------------------------------
    def estimate_users(
        self, samples: np.ndarray, max_users: int | None = None
    ) -> list[UserEstimate]:
        """Phased-SIC user discovery on the preamble.

        The first preamble window is skipped: a delayed user's transmission
        has not started for its first ``delay`` samples, so window 0 does
        not follow the steady-state window model and would bias the delay
        search (every later window's head holds the *previous* chirp's
        tail, which the glitch model accounts for).
        """
        windows = dechirp_windows(
            self.params,
            samples,
            n_windows=self.params.preamble_len - 1,
            start=self.params.samples_per_symbol,
        )
        return phased_sic(
            windows,
            oversample=self.oversample,
            threshold_snr=self.threshold_snr,
            max_users=max_users,
            refine=self.refine,
            rng=self._rng,
        )

    # ------------------------------------------------------------------
    # Data stage
    # ------------------------------------------------------------------
    def _tiers(self, users: list[UserEstimate]) -> list[list[int]]:
        """Group user indices into SIC tiers by channel magnitude."""
        order = sorted(
            range(len(users)), key=lambda i: users[i].channel_magnitude, reverse=True
        )
        ratio = 10.0 ** (self.tier_ratio_db / 20.0)
        tiers: list[list[int]] = []
        for idx in order:
            magnitude = users[idx].channel_magnitude
            if tiers and magnitude * ratio >= users[tiers[-1][0]].channel_magnitude:
                tiers[-1].append(idx)
            else:
                tiers.append([idx])
        return tiers

    def _decode_window(
        self,
        dechirped: np.ndarray,
        users: list[UserEstimate],
        prev_symbols: np.ndarray,
        window_index: int = 0,
    ) -> np.ndarray:
        """Decode one data window for every tracked user.

        Users are decided strongest-first: each user's matched filter (an
        FFT after derotating by that user's fractional offset -- the
        fractional-part tracking of Sec. 4) runs on the residual left after
        jointly re-fitting and subtracting every already-decided user, so a
        strong user's tone cannot masquerade as a weaker user's data.  The
        subtraction uses the exact delayed-window model (current symbol
        plus the previous symbol's head segment), which is what keeps the
        residual near the noise floor in the near-far regime.
        """
        n = dechirped.size
        samples = cached_sample_index(n)
        decided = np.zeros(len(users), dtype=np.int64)
        decided_users: list[int] = []
        residual = dechirped
        order = sorted(
            range(len(users)),
            key=lambda i: users[i].channel_magnitude,
            reverse=True,
        )

        def model_columns(indices: list[int], junk: np.ndarray | None = None) -> np.ndarray:
            columns = [
                data_column(
                    users[i].position_bins,
                    users[i].delay_samples,
                    int(decided[i]),
                    int(prev_symbols[i]),
                    n,
                )
                for i in indices
            ]
            if junk is not None:
                columns.extend(
                    np.exp(2j * np.pi * pos * samples / n) for pos in junk
                )
            return np.stack(columns, axis=-1)

        def subtract(indices: list[int], junk: np.ndarray | None = None) -> np.ndarray:
            if not indices and (junk is None or junk.size == 0):
                return dechirped
            columns = model_columns(indices, junk)
            amplitudes = solve_channels(dechirped, columns)
            return dechirped - columns @ amplitudes

        def _deviation(derotated: np.ndarray, candidate: int) -> float:
            """Sub-bin offset of a candidate tone from the integer grid.

            Evaluates the DTFT at candidate +/- 0.25 bins and fits a
            parabola: a user's *own* tone sits on-grid after derotation
            (deviation ~0), while a fractional-signature collider's tone
            sits at its signature difference away.
            """
            offsets = np.array([-0.25, 0.0, 0.25])
            probe = np.abs(
                evaluate_spectrum_at(derotated, candidate + offsets)
            )
            denom = probe[0] - 2.0 * probe[1] + probe[2]
            if abs(denom) < 1e-30:
                return 0.0
            vertex = 0.5 * (probe[0] - probe[2]) / denom * 0.25
            return float(np.clip(vertex, -0.5, 0.5))

        def decide(signal: np.ndarray, idx: int, exclude: set[int] | None = None) -> int:
            """Matched-filter decision with fractional-position tracking.

            Among near-maximal candidates, prefer the one that (a) sits on
            the integer grid of *this* user's derotated spectrum -- the
            paper's fractional-part identification (Sec. 4) -- and (b) has
            a magnitude matching the user's preamble channel.  This breaks
            ties when two users' fractional signatures nearly collide and
            each one's tone registers near an integer bin of the other's
            filter.
            """
            user = users[idx]
            mu = user.position_bins
            derotated = signal * np.exp(-2j * np.pi * mu * samples / n)
            spectrum = np.fft.fft(derotated, n)
            magnitude = np.abs(spectrum).copy()
            if exclude:
                for banned in exclude:
                    magnitude[banned % n] = 0.0
            peak = float(magnitude.max())
            candidates = np.nonzero(magnitude >= 0.7 * peak)[0]
            if candidates.size <= 1:
                return int(np.argmax(magnitude))
            expected_mag = max(user.channel_magnitude * n, 1e-30)
            scores = []
            for candidate in candidates:
                deviation = abs(_deviation(derotated, int(candidate)))
                mag_mismatch = abs(np.log(magnitude[candidate] / expected_mag))
                scores.append(5.0 * deviation + 0.5 * mag_mismatch)
            return int(candidates[int(np.argmin(scores))])

        for idx in order:
            decided[idx] = decide(residual, idx)
            decided_users.append(idx)
            # Joint least-squares re-fit over every decided user, then
            # subtract, so weaker users see a cleaned residual (the joint
            # fit models leakage between comparable-power users, Sec. 5.2).
            residual = subtract(decided_users)
        # Junk absorption: when two users' offsets merged during estimation,
        # one of their tones was never fitted and would steal weaker users'
        # decisions.  Fit any remaining strong residual peaks as anonymous
        # "junk" tones, then re-decide every user once on a residual with
        # everything else (users + junk) subtracted.
        junk_peaks = find_peaks(
            oversampled_spectrum(residual, 4), 4, threshold_snr=6.0, max_peaks=4
        )
        if junk_peaks:
            junk_positions = np.array(
                [p.position_bins for p in junk_peaks], dtype=float
            )
            # Gauss-Seidel sweeps: re-decide each user against a residual
            # with every *other* user (and foreign junk) subtracted, until
            # the decisions stop changing.  Early wrong decisions in the
            # strongest-first pass (likely when several users have similar
            # power) get revisited once the rest of the model firmed up.
            for _ in range(4):
                changed = False
                for idx in order:
                    others = [i for i in decided_users if i != idx]
                    # A junk tone whose fractional part matches this user's
                    # signature may be the user's own (mis-decided) tone --
                    # keep it out of the subtraction so the re-decision can
                    # recover it.
                    foreign_junk = junk_positions[
                        circular_distance(
                            junk_positions % 1.0, users[idx].fractional
                        )
                        > 0.12
                    ]
                    cleaned = subtract(others, foreign_junk)
                    new_decision = decide(cleaned, idx)
                    if new_decision != decided[idx]:
                        decided[idx] = new_decision
                        changed = True
                if not changed:
                    break
        # Conflict resolution: two users claiming the same *physical* tone
        # (their decided positions coincide on the spectrum) is impossible
        # -- one transmitter emits one tone per window.  This happens when
        # fractional signatures nearly collide; keep the claimant whose
        # frame puts the tone closer to its integer grid (smaller
        # deviation) and make the loser re-decide with that bin excluded.
        def claim_deviation(idx: int) -> float:
            mu = users[idx].position_bins
            derotated = dechirped * np.exp(-2j * np.pi * mu * samples / n)
            return abs(_deviation(derotated, int(decided[idx])))

        for _ in range(3):
            conflict: tuple[int, int] | None = None
            for a_pos, i in enumerate(decided_users):
                for j in decided_users[a_pos + 1 :]:
                    tone_i = (decided[i] + users[i].position_bins) % n
                    tone_j = (decided[j] + users[j].position_bins) % n
                    if circular_distance(tone_i, tone_j, period=n) < 0.3:
                        conflict = (i, j)
                        break
                if conflict:
                    break
            if conflict is None:
                break
            i, j = conflict
            loser = i if claim_deviation(i) > claim_deviation(j) else j
            # Provenance: tone conflicts are the signature of (near-)
            # collided fractional offsets -- the forensics layer reads
            # these to call a loss cluster-ambiguous.  No-op untraced.
            trace_context.add_event(
                "decode.conflict",
                window=window_index,
                users=[int(i), int(j)],
                loser=int(loser),
            )
            others = [k for k in decided_users if k != loser]
            cleaned = subtract(others)
            decided[loser] = decide(cleaned, loser, exclude={int(decided[loser])})
        return decided

    def decode(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        max_users: int | None = None,
        method: DecodeMethod = "sic",
    ) -> list[DecodedUser]:
        """Disentangle and decode every discernible user in a collision.

        ``samples`` must start at the common preamble boundary (the MAC's
        beacon slotting guarantees window-scale alignment; sub-window
        offsets are handled by the offset machinery).

        ``method`` selects the data stage: ``"sic"`` (default) runs the
        strongest-first matched-filter + joint-subtraction pipeline;
        ``"clustering"`` runs the paper's Sec. 6.2 description literally --
        detect every window's peaks, then assign peaks to users with the
        constrained (HMRF-style) clusterer on fractional position and
        channel magnitude.  SIC is more robust under near-far; clustering
        is the paper-faithful alternative and a useful cross-check.
        """
        if method not in DECODE_METHODS:
            raise ValueError(
                f"unknown decode method: {method!r}; expected one of "
                f"{DECODE_METHODS}"
            )
        users = self.estimate_users(samples, max_users=max_users)
        trace_context.add_event(
            "decode.users",
            n_users=len(users),
            fractions=[round(float(u.position_bins % 1.0), 4) for u in users],
        )
        if not users:
            return []
        start = self.params.preamble_len * self.params.samples_per_symbol
        windows = dechirp_windows(
            self.params, samples, n_windows=n_data_symbols, start=start
        )
        if method == "clustering":
            return self._decode_clustering(windows, users)
        per_user_symbols = np.zeros((len(users), windows.shape[0]), dtype=np.int64)
        # The symbol preceding the first data window is the last preamble
        # chirp (value 0) for every user.
        prev_symbols = np.zeros(len(users), dtype=np.int64)
        for m in range(windows.shape[0]):
            per_user_symbols[:, m] = self._decode_window(
                windows[m], users, prev_symbols, window_index=m
            )
            prev_symbols = per_user_symbols[:, m]
        return [
            DecodedUser(estimate=user, symbols=per_user_symbols[k].copy())
            for k, user in enumerate(users)
        ]

    def _decode_clustering(
        self, windows: np.ndarray, users: list[UserEstimate]
    ) -> list[DecodedUser]:
        """The Sec. 6.2 data stage: peak detection + constrained clustering.

        Every window's peaks are detected in the oversampled spectrum (one
        per user when all are window-aligned); the clusterer -- seeded with
        the preamble-derived (fractional position, channel magnitude)
        centroids and constrained so peaks within a window map to distinct
        users -- assigns each peak to a user, and the user's data is the
        peak position minus its aggregate offset.  Windows where a user's
        peak went undetected fall back to that user's matched filter.
        """
        n = windows.shape[-1]
        samples = cached_sample_index(n)
        peak_windows = [
            find_peaks(
                oversampled_spectrum(windows[m], self.oversample),
                self.oversample,
                threshold_snr=self.threshold_snr,
                max_peaks=2 * len(users),
                min_separation_bins=0.6,
            )
            for m in range(windows.shape[0])
        ]
        clusterer = ConstrainedClusterer(
            len(users), seeds=centroids_from_estimates(users, amplitude_scale=n)
        )
        assignments = clusterer.cluster(peak_windows)
        per_user_symbols = np.zeros((len(users), windows.shape[0]), dtype=np.int64)
        for m, assignment in enumerate(assignments):
            for k, user in enumerate(users):
                peak = assignment.get(k)
                if peak is not None:
                    per_user_symbols[k, m] = int(
                        np.round(peak.position_bins - user.position_bins)
                    ) % n
                else:
                    # Erasure: fall back to this user's matched filter.
                    derotated = windows[m] * np.exp(
                        -2j * np.pi * user.position_bins * samples / n
                    )
                    per_user_symbols[k, m] = int(
                        np.argmax(np.abs(np.fft.fft(derotated, n)))
                    )
        return [
            DecodedUser(estimate=user, symbols=per_user_symbols[k].copy())
            for k, user in enumerate(users)
        ]

    # ------------------------------------------------------------------
    # Team stage (range extension, Sec. 7)
    # ------------------------------------------------------------------
    def decode_team(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        detection_pfa: float = 1e-3,
        method: TeamDecodeMethod = "template",
        coherent: bool = False,
        max_members: int | None = None,
    ) -> TeamDecodeResult:
        """Detect and decode a below-range team's shared data symbols.

        The team transmits identical data after a beacon; individual peaks
        may be under the noise floor of one window but emerge from the
        ``preamble_len``-window accumulation.

        ``method="template"`` (default) decodes each data window by
        circularly correlating its power spectrum against the accumulated
        preamble fingerprint -- the noncoherent ML decision that needs no
        explicit member list, so members too co-located to resolve still
        contribute pooled energy.  ``method="members"`` runs the explicit
        per-member decoder of Eqn. 6 (set ``coherent=True`` for the exact
        metric when channel phases are trustworthy).
        """
        if method not in TEAM_DECODE_METHODS:
            raise ValueError(
                f"unknown team decode method: {method!r}; expected one of "
                f"{TEAM_DECODE_METHODS}"
            )
        detection = sliding_packet_search(
            self.params,
            samples,
            oversample=self.oversample,
            pfa=detection_pfa,
        )
        if not detection.detected or not detection.peaks:
            return TeamDecodeResult(
                detected=False,
                symbols=np.zeros(0, dtype=np.int64),
                start_window=0,
                n_members_detected=0,
                score=detection.score,
            )
        peaks = list(detection.peaks)
        if max_members is not None:
            peaks = peaks[:max_members]
        positions = np.array([p.position_bins for p in peaks], dtype=float)
        n = self.params.samples_per_symbol
        start = detection.start_window * n
        # Skip the detected preamble's first window (partial for delayed
        # users, see estimate_users).
        preamble = dechirp_windows(
            self.params,
            samples,
            n_windows=self.params.preamble_len - 1,
            start=start + n,
        )
        if self.refine and positions.size <= 8:
            # Joint refinement cost grows with team size; beyond a handful
            # of members the accumulated coarse positions are already tight.
            positions = refine_offsets(preamble, positions, rng=self._rng)
            positions, _ = _merge_duplicates(
                positions, np.zeros(positions.size), preamble, 0.75
            )
        estimates = build_user_estimates(preamble, positions)
        # Channel extrapolation indexes windows relative to preamble window
        # 1 (the first one used), so data window m sits at preamble_len-1+m.
        members = [
            TeamMember(
                position_bins=e.position_bins,
                channel=e.channel_at_window(self.params.preamble_len - 1),
                delay_samples=0.0,
            )
            for e in estimates
        ]
        data_start = start + self.params.preamble_len * n
        windows = dechirp_windows(
            self.params, samples, n_windows=n_data_symbols, start=data_start
        )
        symbols = np.zeros(windows.shape[0], dtype=np.int64)
        if method == "template":
            template = accumulate_preamble(preamble, self.oversample)
            for m in range(windows.shape[0]):
                window_power = (
                    np.abs(oversampled_spectrum(windows[m], self.oversample)) ** 2
                )
                symbols[m], _ = template_correlation_decode(
                    template, window_power, self.oversample
                )
        else:
            for m in range(windows.shape[0]):
                window_members = [
                    TeamMember(
                        position_bins=e.position_bins,
                        channel=e.channel_at_window(self.params.preamble_len - 1 + m),
                        delay_samples=0.0,
                    )
                    for e in estimates
                ] if coherent else members
                symbols[m], _ = joint_ml_decode(
                    windows[m], window_members, coherent=coherent
                )
        return TeamDecodeResult(
            detected=True,
            symbols=symbols,
            start_window=detection.start_window,
            n_members_detected=len(members),
            score=detection.score,
        )
