"""Below-noise packet detection by preamble accumulation (paper Sec. 7.2).

A single window's dechirped peak from a far-away team member is buried in
noise.  But every preamble window puts each user's peak in the *same*
oversampled FFT position, while noise is independent across windows --
averaging the power spectra over the ``n``-symbol preamble shrinks the
noise spread and lets peaks (and the team's *sum* of peaks) emerge.

The detector is calibrated against the exact null distribution: with
``n`` averaged windows, each bin's power (normalized by the noise power)
is ``Gamma(n, 1/n)``; the detection threshold is the ``(1 - pfa)``
quantile of the *maximum* over the effectively independent bins, scaled by
a median-based noise estimate.  A naive "k sigmas above the mean" rule
false-alarms constantly on the exponential tail of a single window.

Both null quantiles depend only on ``(n_windows, n_bins, pfa)``, so they
are computed once per key (:func:`null_quantiles`).  The sliding search
decides on every start at a coarse :data:`SCAN_OVERSAMPLE` resolution in
one vectorized pass, and re-scores at the caller's fine resolution only
the starts around a crossing, where it picks the start.  A
:class:`ScanMemo` lets a stream scanner carry both resolutions' window
power spectra and per-start statistics from one chunk's search to the
next, so a window is dechirped and FFT'd once per stream rather than
once per scan.  :func:`decide_starts` makes the coarse decision for many
streams of one PHY at once (the gateway's shards), so only a stream with
a crossing runs the search.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from repro import observe
from repro.core.dechirp import DEFAULT_OVERSAMPLE, dechirp_windows, oversampled_spectrum
from repro.core.peaks import Peak, find_peaks
from repro.phy.params import LoRaParams
from repro.profile.profiler import shape_bucket

#: Zero-padding factor every start is decided at.  2x keeps the
#: scalloping loss a fraction of a dB (1x loses ~3 dB); the start itself
#: is picked at the caller's finer ``oversample`` (see
#: :func:`sliding_packet_search`).
SCAN_OVERSAMPLE = 2


def accumulate_preamble(
    dechirped_windows_arr: np.ndarray, oversample: int = DEFAULT_OVERSAMPLE
) -> np.ndarray:
    """Noncoherent accumulation: mean power spectrum over windows."""
    rows = np.atleast_2d(np.asarray(dechirped_windows_arr))
    spectra = oversampled_spectrum(rows, oversample)
    return np.mean(np.abs(spectra) ** 2, axis=0)


class DetectionResult:
    """Outcome of a packet-detection attempt.

    ``score`` is the ratio of the strongest accumulated bin to the
    calibrated null threshold: > 1 means detected; comparable across
    candidate start positions.

    ``peaks`` may be given as a zero-argument callable instead of a
    sequence: it is called on the first read of :attr:`peaks`, and its
    result is kept.
    :func:`sliding_packet_search` defers its peak picking this way, so a
    caller that only needs ``detected`` / ``start_window`` / ``score``
    (the streaming gateway) never pays for :func:`find_peaks`.  Equality
    compares ``(detected, start_window, peaks, score)`` either way.
    """

    __slots__ = ("detected", "start_window", "score", "_peaks")

    def __init__(
        self,
        detected: bool,
        start_window: int,
        peaks: Sequence[Peak] | Callable[[], Sequence[Peak]],
        score: float,
    ) -> None:
        self.detected = detected
        self.start_window = start_window
        self.score = score
        self._peaks = peaks if callable(peaks) else tuple(peaks)

    @property
    def peaks(self) -> tuple[Peak, ...]:
        """Distinct accumulated-preamble peaks, strongest first."""
        if callable(self._peaks):
            self._peaks = tuple(self._peaks())
        return self._peaks

    @property
    def n_peaks(self) -> int:
        """Number of distinct accumulated-preamble peaks (team members seen)."""
        return len(self.peaks)

    def _fields(self) -> tuple[bool, int, tuple[Peak, ...], float]:
        return (self.detected, self.start_window, self.peaks, self.score)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"DetectionResult(detected={self.detected!r}, "
            f"start_window={self.start_window!r}, peaks={self.peaks!r}, "
            f"score={self.score!r})"
        )


def detection_threshold(
    n_windows: int, n_independent_bins: int, pfa: float = 1e-3
) -> float:
    """Normalized detection threshold for the accumulated power maximum.

    Returns the multiple of the *noise power* that the maximum accumulated
    bin must exceed for a false-alarm probability of ``pfa``: the
    ``(1 - pfa)**(1/B)`` quantile of ``Gamma(n, 1/n)`` over ``B``
    effectively independent bins.
    """
    per_bin_quantile = (1.0 - pfa) ** (1.0 / max(n_independent_bins, 1))
    return float(stats.gamma.ppf(per_bin_quantile, a=n_windows, scale=1.0 / n_windows))


@lru_cache(maxsize=1024)
def null_quantiles(n_windows: int, n_bins: int, pfa: float) -> tuple[float, float]:
    """``(detection_threshold, Gamma median)`` of one null, computed once.

    ``stats.gamma.ppf`` is far costlier than the spectra it judges, and
    both quantiles depend only on the key, which a stream repeats on
    every scan.  Values are exactly the uncached ones.
    """
    gamma_median = float(stats.gamma.ppf(0.5, a=n_windows, scale=1.0 / n_windows))
    return detection_threshold(n_windows, n_bins, pfa), gamma_median


def detect_preamble(
    accumulated_power: np.ndarray,
    oversample: int = DEFAULT_OVERSAMPLE,
    n_windows: int = 1,
    pfa: float = 1e-3,
    max_peaks: int | None = None,
) -> DetectionResult:
    """Detect peaks in an accumulated power spectrum.

    Parameters
    ----------
    accumulated_power:
        Output of :func:`accumulate_preamble`.
    n_windows:
        How many windows were averaged (sets the null distribution).
    pfa:
        Target false-alarm probability per detection attempt.
    """
    power = np.asarray(accumulated_power, dtype=float)
    if power.size == 0:
        return DetectionResult(detected=False, start_window=0, peaks=(), score=0.0)
    n_bins = power.size // max(oversample, 1)
    threshold_factor, gamma_median = null_quantiles(n_windows, n_bins, pfa)
    # Median-based noise estimate: median of Gamma(n, 1/n) times the noise
    # power equals the spectrum median (peaks barely move the median).
    noise_power = float(np.median(power)) / max(gamma_median, 1e-30)
    threshold = noise_power * threshold_factor
    peak_power = float(power.max())
    score = peak_power / max(threshold, 1e-30)
    if score < 1.0:
        return DetectionResult(detected=False, start_window=0, peaks=(), score=score)
    pseudo = np.sqrt(np.maximum(power, 0.0)).astype(complex)
    # find_peaks thresholds magnitude against the median magnitude; convert
    # the calibrated power threshold into that scale.
    magnitude_threshold_snr = float(
        np.sqrt(threshold) / max(np.median(np.sqrt(power)), 1e-30)
    )
    peaks = find_peaks(
        pseudo,
        oversample,
        threshold_snr=magnitude_threshold_snr,
        max_peaks=max_peaks,
    )
    return DetectionResult(detected=True, start_window=0, peaks=tuple(peaks), score=score)


#: Grid alignment: candidate sub-window offsets per symbol, the
#: zero-padding factor of their spectra, the guard taken off the latest
#: ridge start, and the ridge's score floor as a fraction of the best
#: (above the ~0.76 mid-chirp plateau, below the ridge's noise spread).
ALIGN_OFFSETS = 16
ALIGN_OVERSAMPLE = 4
ALIGN_GUARD_SAMPLES = 8
ALIGN_RIDGE_TOLERANCE = 0.85


def align_to_window_grid(
    params: LoRaParams,
    samples: np.ndarray,
    candidate_range: tuple[int, int] | None = None,
) -> tuple[int, float]:
    """Find the sample offset placing the preamble at the window grid start.

    The preamble is the same chirp repeated, so any grid offset *inside*
    it dechirps to clean tones -- peak sharpness alone is degenerate.  The
    non-degenerate statistic is the sharpness of an accumulation **span**
    of ``preamble_len - 1`` windows: the score collapses once the span
    leaks into leading noise or into (random-valued) data symbols, so high
    scores form a ridge exactly one window wide around the true start.
    (Window-aligned candidates inside the ridge also out-score mid-chirp
    ones by ~25 %, because a straddling grid adds every user's boundary
    phase glitch to each window.)  Among near-maximal candidates we take
    the *latest* start minus a small guard, which leaves each user a small
    positive residual delay -- the regime the per-user delay estimator is
    built for; :data:`ALIGN_RIDGE_TOLERANCE` must sit above the mid-chirp
    score plateau (~0.76 of the peak) but below the ridge's own noise
    spread.

    ``candidate_range`` restricts the considered start samples to the
    half-open interval ``[lo, hi)``.  Callers that already know where the
    boundary must lie -- the gateway's window cut
    (:data:`repro.core.cascade.WINDOW_LEAD_SYMBOLS`) bounds the true start
    to the first three symbols -- should pass it: inside the preamble the
    repeated chirp is phase-continuous, so when the first data symbol's
    tone happens to fall near the preamble tone the ridge can stretch
    several windows past the true boundary, and an unconstrained
    "latest" pick overshoots.

    Returns ``(sample_offset, score)``; feed ``samples[sample_offset:]`` to
    :meth:`repro.core.ChoirDecoder.decode`.
    """
    samples = np.asarray(samples)
    n = params.samples_per_symbol
    span = params.preamble_len - 1
    if samples.size < (params.preamble_len + 1) * n:
        return 0, 0.0
    step = max(n // ALIGN_OFFSETS, 1)
    max_windows: int | None = None
    if candidate_range is not None:
        lo, hi = candidate_range
        if lo <= 0 < hi:
            # A candidate at start ``offset + w*n < hi`` only reads the
            # accumulation span ``spectra[w+1 : w+1+span]``; dechirping
            # windows past ``(hi-1)//n + span`` is pure waste (it was the
            # dominant cost of short bounded searches).  Safe to truncate
            # because the candidate at start 0 is always scored and in
            # range, so the bounded set below cannot be empty and the
            # unbounded fallback cannot trigger.
            max_windows = (hi - 1) // n + 1 + span
    candidates: list[tuple[int, float]] = []  # (start_sample, score)
    for offset in range(0, n, step):
        windows = dechirp_windows(params, samples, n_windows=max_windows, start=offset)
        spectra = np.abs(oversampled_spectrum(windows, ALIGN_OVERSAMPLE)) ** 2
        n_starts = windows.shape[0] - span
        for w in range(max(n_starts, 0)):
            accumulated = spectra[w + 1 : w + 1 + span].mean(axis=0)
            score = float(
                accumulated.max() / max(np.median(accumulated), 1e-30)
            )
            candidates.append((offset + w * n, score))
    if candidate_range is not None:
        lo, hi = candidate_range
        bounded = [(s, score) for s, score in candidates if lo <= s < hi]
        if bounded:
            candidates = bounded
    if not candidates:
        return 0, 0.0
    best_score = max(score for _, score in candidates)
    ridge = [
        s for s, score in candidates if score >= ALIGN_RIDGE_TOLERANCE * best_score
    ]
    start = max(max(ridge) - ALIGN_GUARD_SAMPLES, 0)
    # Provenance: the ridge evidence behind the chosen grid offset; the
    # forensics layer calls a failed decode with a plateau-level score
    # misaligned.  No-op when tracing is off.
    observe.add_event(
        "detect.align",
        start=int(start),
        score=best_score,
        ridge_width=len(ridge),
    )
    return start, best_score


def _power_rows(windows: np.ndarray, oversample: int) -> np.ndarray:
    """Oversampled power spectra of dechirped windows, one row per window."""
    return np.abs(oversampled_spectrum(windows, oversample)) ** 2


def _start_stats(power: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """``(max, median)`` of the accumulated spectrum of every start in ``starts``.

    Start ``s`` accumulates rows ``s .. s + span - 1`` of ``power``.  The
    rows are summed in window order, one fancy-index add per window, and
    reduced per row, so the statistics match a one-start-at-a-time
    accumulation bit for bit -- a prefix sum would not.
    """
    total = power[starts]
    for k in range(1, span):
        total += power[starts + k]
    accumulated = total / span
    stats_rows = np.empty((starts.size, 2))
    stats_rows[:, 0] = accumulated.max(axis=1)
    stats_rows[:, 1] = np.median(accumulated, axis=1)
    return stats_rows


class _Cover:
    """One request to a :class:`_ScanRows`: what it holds and what is missing.

    ``power`` / ``stats`` are the held rows from the request's first
    window on; the first ``kept`` windows and ``lo`` starts need no work,
    the other ``missing`` windows and ``n_starts - lo`` starts do.
    """

    __slots__ = ("key", "at", "n_starts", "n_windows", "power", "stats", "kept", "lo")

    def __init__(
        self,
        key: tuple[LoRaParams, int],
        at: int,
        n_starts: int,
        n_windows: int,
        power: np.ndarray,
        stats: np.ndarray,
    ) -> None:
        self.key, self.at = key, at
        self.n_starts, self.n_windows = n_starts, n_windows
        self.power, self.stats = power, stats
        self.kept = min(power.shape[0], n_windows)
        self.lo = stats.shape[0]

    @property
    def missing(self) -> int:
        """Windows of the request that must be freshly transformed."""
        return self.n_windows - self.kept

    def rows(self, fresh: np.ndarray | None) -> np.ndarray:
        """The held rows followed by the ``missing`` freshly computed ones."""
        if fresh is None:
            return self.power
        return np.concatenate([self.power, fresh]) if self.kept else fresh


class _ScanRows:
    """One resolution's window power rows and start statistics.

    Rows are keyed by absolute sample index: ``power[k]`` is the
    oversampled power spectrum of the window starting at sample
    ``origin + k * n`` and ``stats[k]`` the ``(max, median)`` of the
    accumulated spectrum of the start at that window.  A request whose
    first window lies at or after ``origin`` on the same window grid
    (same PHY, same oversample) reuses every row the two cover, and rows
    past the request's end are kept for a later, longer one; any other
    request recomputes everything.  ``fresh`` / ``kept`` count the last
    request's freshly computed and carried-over windows.

    A request is planned (:meth:`plan`), its missing rows computed, and
    the result stored (:meth:`store`); :meth:`cover` does all three for
    one request, :func:`decide_starts` the middle step for many at once.
    """

    def __init__(self) -> None:
        self.key: tuple[LoRaParams, int] | None = None
        self.origin = 0
        self.power = np.zeros((0, 0))
        self.stats = np.zeros((0, 2))
        self.fresh = 0
        self.kept = 0

    def plan(
        self, params: LoRaParams, oversample: int, at: int, n_starts: int
    ) -> _Cover:
        """What starts ``n_starts`` windows from absolute sample ``at`` need."""
        n = params.samples_per_symbol
        key = (params, oversample)
        power, stats_rows = self.power[:0], self.stats[:0]
        if self.key == key and at >= self.origin and (at - self.origin) % n == 0:
            shift = (at - self.origin) // n
            power, stats_rows = self.power[shift:], self.stats[shift:]
        return _Cover(key, at, n_starts, n_starts + params.preamble_len - 1, power, stats_rows)

    def store(
        self, cover: _Cover, power: np.ndarray, fresh_stats: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keep ``power`` (:meth:`_Cover.rows`) and the new start statistics."""
        stats_rows = cover.stats
        if fresh_stats is not None:
            stats_rows = np.concatenate([stats_rows, fresh_stats]) if cover.lo else fresh_stats
        self.key, self.origin = cover.key, cover.at
        self.power, self.stats = power, stats_rows
        self.fresh, self.kept = cover.missing, cover.kept
        return power[: cover.n_windows], stats_rows[: cover.n_starts]

    def cover(
        self,
        params: LoRaParams,
        samples: np.ndarray,
        oversample: int,
        origin: int,
        first: int,
        n_starts: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Power rows and statistics of starts ``first .. first + n_starts - 1``.

        ``samples[0]`` sits at absolute index ``origin``; start ``s`` is
        the window at ``samples[s * n]``.
        """
        n = params.samples_per_symbol
        cover = self.plan(params, oversample, origin + first * n, n_starts)
        fresh = None
        if cover.missing:
            windows = dechirp_windows(
                params, samples, n_windows=cover.missing, start=(first + cover.kept) * n
            )
            fresh = _power_rows(windows, oversample)
        power = cover.rows(fresh)
        fresh_stats = None
        if cover.lo < n_starts:
            fresh_stats = _start_stats(
                power, np.arange(cover.lo, n_starts), params.preamble_len
            )
        return self.store(cover, power, fresh_stats)


class ScanMemo:
    """Both resolutions' rows of a stream's last search (:class:`_ScanRows`).

    ``coarse`` holds the :data:`SCAN_OVERSAMPLE` rows every start is
    decided on, ``fine`` the caller-``oversample`` rows of the starts
    around a crossing that the pick re-scored.  Both are keyed by
    absolute sample, so a pending detection re-scanned on the next chunk
    transforms its fine rows once, not once per scan.  Only the current
    segment (and the last pick's span) is held, never the whole stream,
    and the caller must hand in the same samples at the same absolute
    indices.

    ``windows_transformed`` / ``windows_reused`` count the last search's
    freshly computed and carried-over coarse windows,
    ``windows_refined`` its freshly computed fine ones.
    """

    def __init__(self) -> None:
        self.coarse = _ScanRows()
        self.fine = _ScanRows()
        self.windows_transformed = 0
        self.windows_reused = 0
        self.windows_refined = 0


def _scores(
    start_stats: np.ndarray, threshold_factor: float, gamma_median: float
) -> np.ndarray:
    """:func:`detect_preamble`'s score, elementwise over every start."""
    noise_power = start_stats[:, 1] / max(gamma_median, 1e-30)
    return start_stats[:, 0] / np.maximum(noise_power * threshold_factor, 1e-30)


def decide_starts(
    params: LoRaParams,
    streams: Sequence[tuple[ScanMemo, Callable[[int, int], np.ndarray], int, int]],
    pfa: float = 1e-3,
) -> list[np.ndarray]:
    """Decide every start of several streams of one PHY in one coarse pass.

    Each stream is ``(memo, read, origin, n_starts)``: its starts are the
    ``n_starts`` windows from absolute sample ``origin`` on, and
    ``read(start, length)`` returns its samples from absolute ``start``.
    Only the windows a memo does not already hold are read.  All streams
    then share one dechirp, one :data:`SCAN_OVERSAMPLE` FFT and one
    ``max`` / ``median`` over every new start, and each memo receives its
    own rows.  Returns each stream's :func:`detect_preamble` score of
    every start (a start decides a detection at 1 or more), with the
    search-level ``pfa`` split over that stream's starts.

    Each memo is left as :func:`sliding_packet_search` on the same span
    would leave its coarse rows, window counters included, so that
    search transforms no coarse window again and a stream whose scores
    all stay below 1 need not search at all.
    """
    n = params.samples_per_symbol
    span = params.preamble_len
    covers = [
        memo.coarse.plan(params, SCAN_OVERSAMPLE, origin, n_starts)
        for memo, _, origin, n_starts in streams
    ]
    total_starts = sum(cover.n_starts for cover in covers)
    with observe.kernel("detect.decide", f"N{n}.S{shape_bucket(total_starts)}"):
        pieces = [
            read(cover.at + cover.kept * n, cover.missing * n)
            for (_, read, _, _), cover in zip(streams, covers)
            if cover.missing
        ]
        fresh = (
            _power_rows(dechirp_windows(params, np.concatenate(pieces)), SCAN_OVERSAMPLE)
            if pieces
            else None
        )
        powers, stacked, starts = [], [], []
        used = rows = 0
        for cover in covers:
            power = cover.rows(fresh[used : used + cover.missing] if cover.missing else None)
            used += cover.missing
            powers.append(power)
            if cover.lo < cover.n_starts:
                stacked.append(power[cover.lo : cover.n_windows])
                starts.append(np.arange(cover.n_starts - cover.lo) + rows)
                rows += cover.n_windows - cover.lo
        fresh_stats = (
            _start_stats(np.concatenate(stacked), np.concatenate(starts), span)
            if stacked
            else None
        )
        scores = []
        done = 0
        for (memo, _, _, n_starts), cover, power in zip(streams, covers, powers):
            new = None
            if cover.lo < n_starts:
                new = fresh_stats[done : done + n_starts - cover.lo]
                done += n_starts - cover.lo
            _, start_stats = memo.coarse.store(cover, power, new)
            memo.windows_transformed = memo.coarse.fresh
            memo.windows_reused = memo.coarse.kept
            memo.windows_refined = 0
            scores.append(_scores(start_stats, *null_quantiles(span, n, pfa / n_starts)))
        return scores


def _pick(scores: np.ndarray, span: int, earliest: bool) -> tuple[int | None, int, int]:
    """The start-picking rule over one run of start scores.

    Returns ``(crossing, best, horizon)``: the first start scoring at
    least 1 (``None`` if none does), the picked start and the last start
    the rule reads.  Without ``earliest`` or without a crossing the pick
    is the plain best and the rule reads every start.  With both, the
    pick is the best start from the crossing up to the horizon, which
    sits one preamble span past the best so far -- it may lie past the
    end of ``scores``, telling the caller the pick needs more starts.
    """
    crossed = np.flatnonzero(~(scores < 1.0))
    if not crossed.size or not earliest:
        crossing = int(crossed[0]) if crossed.size else None
        return crossing, int(np.argmax(scores)), scores.size - 1
    crossing = best = int(crossed[0])
    tail = scores[crossing:].tolist()
    best_score = tail[0]
    for offset, score in enumerate(tail):
        if offset > best - crossing + span - 1:
            break
        if score > best_score:
            best, best_score = crossing + offset, score
    return crossing, best, best + span - 1


def sliding_packet_search(
    params: LoRaParams,
    samples: np.ndarray,
    oversample: int = DEFAULT_OVERSAMPLE,
    pfa: float = 1e-3,
    earliest: bool = False,
    memo: ScanMemo | None = None,
    origin: int = 0,
) -> DetectionResult:
    """Search for a preamble over window-aligned start positions.

    Slides an accumulation window of ``params.preamble_len`` symbols over
    the capture (window-granular, as the beacon slotting guarantees
    window-scale alignment) and returns the best-scoring start.  The
    per-attempt ``pfa`` is divided by the number of starts tried, so the
    search-level false-alarm rate stays at ``pfa``.

    With ``earliest=True`` (the streaming-gateway mode), the search stops at
    the *first* detection instead of the global best: once a start crosses
    the threshold, later starts compete for the local score peak only while
    the score keeps improving -- every new best pushes the horizon out by
    another ``preamble_len - 1`` starts, so a marginal early crossing (e.g.
    adjacent-channel leakage nudging the floor just past the threshold a few
    windows before a real preamble) still climbs to the true start.  Once
    past the peak the scores decay, the horizon freezes, and the search
    stops well before the next packet (at least a frame away) could outbid
    this one -- so a caller consuming the buffer front-to-back never skips
    a packet.

    The search runs at two resolutions.  Every start is *decided* at
    :data:`SCAN_OVERSAMPLE`: the rule above finds the first crossing and
    its horizon.  Only the starts from one preamble span before that
    crossing through the horizon are re-scored at ``oversample``, and the
    same rule on those scores *picks* ``start_window`` and ``score`` --
    widening the re-scored range while the fine horizon keeps moving out.
    A coarse crossing the fine scores do not confirm is passed over and
    the coarse decision resumes after it, so it never hides a later
    packet.  A non-detection reports the best coarse score, with the
    passed-over starts read at their fine scores (all below 1).

    ``memo`` carries both resolutions' window spectra between calls on
    one stream, with ``origin`` the absolute index of ``samples[0]`` (see
    :class:`ScanMemo`); ``None`` searches from scratch.  Results are
    identical either way.

    A detection's ``peaks`` are :func:`detect_preamble`'s peaks of the
    picked start's accumulated ``oversample`` spectrum, picked on their
    first read (see :class:`DetectionResult`).
    """
    samples = np.asarray(samples)
    n = params.samples_per_symbol
    span = params.preamble_len
    total_windows = samples.size // n
    n_starts = total_windows - span + 1
    if n_starts <= 0:
        return DetectionResult(detected=False, start_window=0, peaks=(), score=0.0)
    if memo is None:
        memo = ScanMemo()
    with observe.kernel("detect.scan", f"N{n}.S{shape_bucket(n_starts)}"):
        per_start_pfa = pfa / n_starts
        quantiles = null_quantiles(span, n, per_start_pfa)
        _, coarse_stats = memo.coarse.cover(
            params, samples, SCAN_OVERSAMPLE, origin, 0, n_starts
        )
        memo.windows_transformed = memo.coarse.fresh
        memo.windows_reused = memo.coarse.kept
        memo.windows_refined = 0
        scores = _scores(coarse_stats, *quantiles)
        pos = 0
        while pos < n_starts:
            crossing, _, horizon = _pick(scores[pos:], span, earliest)
            if crossing is None:
                break
            lo = max(pos + crossing - span + 1, pos)
            hi = min(pos + horizon, n_starts - 1)
            while True:
                power, fine_stats = memo.fine.cover(
                    params, samples, oversample, origin, lo, hi - lo + 1
                )
                memo.windows_refined += memo.fine.fresh
                fine = _scores(fine_stats, *quantiles)
                confirmed, best, fine_horizon = _pick(fine, span, earliest)
                if lo + fine_horizon <= hi or hi == n_starts - 1:
                    break
                hi = min(lo + fine_horizon, n_starts - 1)
            if confirmed is not None:
                accumulated = np.mean(power[best : best + span], axis=0)
                # Peak picking is deferred to the first read of ``peaks``.
                peaks = partial(_preamble_peaks, accumulated, oversample, span, per_start_pfa)
                return DetectionResult(
                    detected=True, start_window=lo + best, peaks=peaks, score=float(fine[best])
                )
            # Passed over: the fine scores stand for these starts.
            scores = scores.copy()
            scores[lo : hi + 1] = fine
            pos = hi + 1
        best = int(np.argmax(scores))
        return DetectionResult(
            detected=False, start_window=best, peaks=(), score=float(scores[best])
        )


def _preamble_peaks(
    accumulated: np.ndarray, oversample: int, n_windows: int, pfa: float
) -> tuple[Peak, ...]:
    return detect_preamble(accumulated, oversample, n_windows=n_windows, pfa=pfa).peaks
