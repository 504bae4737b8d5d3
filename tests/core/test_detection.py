"""Tests for below-noise preamble detection (Sec. 7.2)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import detection
from repro.core.dechirp import (
    DEFAULT_OVERSAMPLE,
    cached_downchirp,
    dechirp_windows,
    oversampled_spectrum,
)
from repro.core.detection import (
    DetectionResult,
    ScanMemo,
    accumulate_preamble,
    detect_preamble,
    detection_threshold,
    null_quantiles,
    sliding_packet_search,
)
from tests.core.conftest import PARAMS, make_collision


class TestAccumulation:
    def test_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        windows = (rng.normal(size=(8, 256)) + 1j * rng.normal(size=(8, 256))) / np.sqrt(2)
        accumulated = accumulate_preamble(windows, oversample=4)
        single = np.abs(np.fft.fft(windows[0], 1024)) ** 2
        assert np.std(accumulated) < np.std(single)

    def test_preserves_peak_location(self):
        tone = np.exp(2j * np.pi * 42.5 * np.arange(256) / 256)
        windows = np.stack([tone * np.exp(1j * phi) for phi in (0.0, 1.0, 2.0)])
        accumulated = accumulate_preamble(windows, oversample=10)
        assert np.argmax(accumulated) / 10 == pytest.approx(42.5, abs=0.1)


class TestDetectPreamble:
    def test_detects_above_noise_peak(self):
        rng = np.random.default_rng(1)
        tone = 3.0 * np.exp(2j * np.pi * 99.4 * np.arange(256) / 256)
        windows = np.stack(
            [
                tone + (rng.normal(size=256) + 1j * rng.normal(size=256)) / np.sqrt(2)
                for _ in range(8)
            ]
        )
        result = detect_preamble(accumulate_preamble(windows, 10), 10)
        assert result.detected
        assert result.n_peaks >= 1
        assert result.peaks[0].position_bins == pytest.approx(99.4, abs=0.2)

    def test_no_false_positive_on_noise(self):
        rng = np.random.default_rng(2)
        windows = (rng.normal(size=(8, 256)) + 1j * rng.normal(size=(8, 256))) / np.sqrt(2)
        result = detect_preamble(accumulate_preamble(windows, 10), 10, n_windows=8)
        assert not result.detected

    def test_below_single_window_noise_detected_after_accumulation(self):
        # Per-window SNR so low the peak is invisible in one window but
        # emerges over the preamble (the Sec. 7.2 mechanism).
        rng = np.random.default_rng(3)
        amplitude = 0.35  # -9 dB per-sample
        tone = amplitude * np.exp(2j * np.pi * 10.6 * np.arange(256) / 256)
        windows = np.stack(
            [
                tone + (rng.normal(size=256) + 1j * rng.normal(size=256)) / np.sqrt(2)
                for _ in range(8)
            ]
        )
        result = detect_preamble(accumulate_preamble(windows, 10), 10)
        assert result.detected


class TestSlidingSearch:
    def test_finds_delayed_packet_start(self):
        rng = np.random.default_rng(4)
        packet, _ = make_collision(rng, [(25.3, 2.0, 8.0)], n_symbols=6)
        lead_windows = 3
        padded = np.concatenate(
            [
                (rng.normal(size=lead_windows * 256) + 1j * rng.normal(size=lead_windows * 256))
                / np.sqrt(2),
                packet.samples,
            ]
        )
        result = sliding_packet_search(PARAMS, padded)
        assert result.detected
        assert result.start_window == lead_windows

    def test_team_detection_below_noise(self):
        # 8 members each at -10 dB per-sample: detectable as a team.
        rng = np.random.default_rng(5)
        users = [(rng.uniform(0, 200), rng.uniform(0, 8), 0.32) for _ in range(8)]
        shared = rng.integers(0, 256, 6)
        packet, _ = make_collision(rng, users, symbols=[shared] * 8)
        result = sliding_packet_search(PARAMS, packet.samples)
        assert result.detected
        assert result.n_peaks >= 3

    def test_short_capture(self):
        result = sliding_packet_search(PARAMS, np.zeros(100, dtype=complex))
        assert not result.detected


class TestLazyPeaks:
    def test_peaks_are_picked_once_on_first_read(self, monkeypatch):
        calls = []
        real = detection.find_peaks

        def counting_find_peaks(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(detection, "find_peaks", counting_find_peaks)
        segment = _stream(3, 9 * _N + 37, 2.0)
        result = sliding_packet_search(PARAMS, segment)
        assert result.detected and calls == []
        peaks = result.peaks
        assert result.peaks is peaks and len(calls) == 1
        # Exactly detect_preamble's peaks of the best start's accumulation.
        span = PARAMS.preamble_len
        n_starts = segment.size // _N - span + 1
        power = np.abs(
            oversampled_spectrum(dechirp_windows(PARAMS, segment), DEFAULT_OVERSAMPLE)
        ) ** 2
        expected = detect_preamble(
            np.mean(power[result.start_window : result.start_window + span], axis=0),
            DEFAULT_OVERSAMPLE,
            n_windows=span,
            pfa=1e-3 / n_starts,
        ).peaks
        assert expected and peaks == expected

    def test_deferred_and_eager_results_compare_equal(self):
        result = sliding_packet_search(PARAMS, _stream(3, 9 * _N + 37, 2.0))
        eager = DetectionResult(True, result.start_window, result.peaks, result.score)
        deferred = DetectionResult(True, result.start_window, lambda: eager.peaks, result.score)
        assert deferred == eager and hash(deferred) == hash(eager)
        assert deferred.n_peaks == eager.n_peaks > 0
        assert DetectionResult(False, 0, (), 0.0) != eager


class TestNullQuantiles:
    @pytest.mark.parametrize(
        "n_windows,n_bins,pfa", [(1, 256, 1e-3), (8, 256, 1e-3 / 17), (8, 128, 2.5e-5)]
    )
    def test_memoized_quantiles_are_bit_exact(self, n_windows, n_bins, pfa):
        expected = (
            detection_threshold(n_windows, n_bins, pfa),
            float(stats.gamma.ppf(0.5, a=n_windows, scale=1.0 / n_windows)),
        )
        assert null_quantiles(n_windows, n_bins, pfa) == expected
        assert null_quantiles(n_windows, n_bins, pfa) == expected  # cached


@lru_cache(maxsize=1)
def _preamble_packet() -> np.ndarray:
    packet, _ = make_collision(
        np.random.default_rng(6), [(40.3, 1.0, 1.5)], n_symbols=4, noise_power=0.0
    )
    return packet.samples


def _stream(seed: int, packet_at: int, amplitude: float) -> np.ndarray:
    n = PARAMS.samples_per_symbol
    rng = np.random.default_rng(seed)
    stream = (rng.standard_normal(40 * n) + 1j * rng.standard_normal(40 * n)) / np.sqrt(2)
    packet = _preamble_packet()
    stream[packet_at : packet_at + packet.size] += amplitude * packet
    return stream


def _tone_stream(seed: int, tones, n_windows: int = 24) -> np.ndarray:
    """``n_windows`` windows of noise plus preamble-like tones.

    Each tone is ``(first_window, n_windows, bin, amplitude)``; a
    quarter-bin ``bin`` is where 2x and 10x scores differ most.
    """
    rng = np.random.default_rng(seed)
    size = n_windows * _N
    stream = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)
    upchirp = np.conj(cached_downchirp(PARAMS))
    for first, count, bin_, amplitude in tones:
        tone = amplitude * np.exp(2j * np.pi * bin_ * np.arange(_N) / _N) * upchirp
        for window in range(first, first + count):
            stream[window * _N : (window + 1) * _N] += tone
    return stream


def _assert_same(memoized, fresh):
    assert memoized.detected == fresh.detected
    assert memoized.start_window == fresh.start_window
    assert memoized.score == fresh.score  # exact, not approx
    assert memoized.peaks == fresh.peaks


_N = PARAMS.samples_per_symbol
#: Segment origin moves: mostly whole windows forward (the stream case),
#: but also backwards and off the window grid.
_ORIGIN_STEP = st.one_of(
    st.integers(min_value=-3, max_value=6).map(lambda k: k * _N),
    st.integers(min_value=-3 * _N, max_value=6 * _N),
)


def _per_start(segment, n_starts, oversample, pfa):
    """:func:`detect_preamble` of every start's own accumulation."""
    span = PARAMS.preamble_len
    power = np.abs(oversampled_spectrum(dechirp_windows(PARAMS, segment), oversample)) ** 2
    return [
        detect_preamble(
            np.mean(power[start : start + span], axis=0),
            oversample,
            n_windows=span,
            pfa=pfa / n_starts,
        )
        for start in range(n_starts)
    ]


def _rule(results, first, earliest):
    """The start-picking loop over ``results[first:]``, one start at a time.

    Returns ``(best, crossing, last_start)``: the picked start's result,
    the first detected start (``None`` if none) and the ``earliest``
    horizon (``None`` when the loop read every start).
    """
    span = PARAMS.preamble_len
    best = DetectionResult(detected=False, start_window=0, peaks=(), score=-np.inf)
    crossing = last_start = None
    for start in range(first, len(results)):
        if last_start is not None and start > last_start:
            break
        result = results[start]
        if result.detected and crossing is None:
            crossing = start
        if result.score > best.score:
            best = DetectionResult(result.detected, start, result.peaks, result.score)
            if earliest and last_start is not None:
                last_start = max(last_start, start + span - 1)
        if earliest and result.detected and last_start is None:
            last_start = start + span - 1
    return best, crossing, last_start


def _n_starts(segment):
    return segment.size // _N - PARAMS.preamble_len + 1


def _first_starts(segment, max_start_windows):
    """``segment`` cut to its first ``max_start_windows`` starts (``None``: all)."""
    if max_start_windows is None:
        return segment
    return segment[: (max_start_windows + PARAMS.preamble_len - 1) * _N]


def _fine_only_search(segment, earliest=False, pfa=1e-3):
    """The search before the two-resolution split: every start at 10x."""
    n_starts = _n_starts(segment)
    if n_starts <= 0:
        return DetectionResult(detected=False, start_window=0, peaks=(), score=0.0)
    return _rule(_per_start(segment, n_starts, DEFAULT_OVERSAMPLE, pfa), 0, earliest)[0]


def _reference_search(segment, earliest=False, pfa=1e-3):
    """The two-resolution search, one start at a time, kept as an oracle.

    Decides with :func:`detect_preamble` at ``SCAN_OVERSAMPLE`` per start;
    at the first crossing, picks with the same loop over the 10x results
    from one preamble span before the crossing, provided some 10x start
    up to the coarse horizon is detected.  Otherwise the 10x results
    stand for those starts and the coarse decision resumes after them.
    """
    span = PARAMS.preamble_len
    n_starts = _n_starts(segment)
    if n_starts <= 0:
        return DetectionResult(detected=False, start_window=0, peaks=(), score=0.0)
    coarse = _per_start(segment, n_starts, detection.SCAN_OVERSAMPLE, pfa)
    fine = _per_start(segment, n_starts, DEFAULT_OVERSAMPLE, pfa)
    believed = list(coarse)
    pos = 0
    while pos < n_starts:
        _, crossing, last_start = _rule(coarse, pos, earliest)
        if crossing is None:
            break
        lo = max(crossing - span + 1, pos)
        hi = n_starts - 1 if last_start is None else min(last_start, n_starts - 1)
        if any(fine[start].detected for start in range(lo, hi + 1)):
            return _rule(fine, lo, earliest)[0]
        believed[lo : hi + 1] = fine[lo : hi + 1]
        pos = hi + 1
    return _rule(believed, 0, earliest=False)[0]


class TestReferenceEquivalence:
    """Vectorized scoring, memoized or not, against the per-start oracles."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        packet_at=st.integers(min_value=0, max_value=24 * _N),
        amplitude=st.sampled_from([0.0, 0.08, 2.0]),  # noise, marginal, strong
        step_windows=st.integers(min_value=1, max_value=6),
        earliest=st.booleans(),
        max_start_windows=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_start_search(
        self, seed, packet_at, amplitude, step_windows, earliest, max_start_windows
    ):
        stream = _stream(seed, packet_at, amplitude)
        memo = ScanMemo()
        # A segment sliding along the window grid, as a stream scanner hands in.
        for origin in range(0, 16 * _N, step_windows * _N):
            segment = _first_starts(stream[origin : origin + 24 * _N], max_start_windows)
            expected = _reference_search(segment, earliest=earliest)
            _assert_same(sliding_packet_search(PARAMS, segment, earliest=earliest), expected)
            _assert_same(
                sliding_packet_search(
                    PARAMS, segment, earliest=earliest, memo=memo, origin=origin
                ),
                expected,
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        packet_at=st.integers(min_value=0, max_value=24 * _N),
        amplitude=st.sampled_from([0.0, 0.05, 0.08, 0.12, 2.0]),
        earliest=st.booleans(),
        max_start_windows=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_detections_match_the_fine_only_search(
        self, seed, packet_at, amplitude, earliest, max_start_windows
    ):
        # Only the decision moved to 2x: whenever both searches detect,
        # the pick is the one scoring every start at 10x gave.
        segment = _first_starts(_stream(seed, packet_at, amplitude)[: 24 * _N], max_start_windows)
        result = sliding_packet_search(PARAMS, segment, earliest=earliest)
        before = _fine_only_search(segment, earliest=earliest)
        if result.detected and before.detected:
            _assert_same(result, before)

    @pytest.mark.parametrize("earliest", [False, True])
    def test_strong_packet_matches_the_fine_only_search(self, earliest):
        segment = _stream(3, 9 * _N + 37, 2.0)
        result = sliding_packet_search(PARAMS, segment, earliest=earliest)
        assert result.detected
        _assert_same(result, _fine_only_search(segment, earliest=earliest))

    @pytest.mark.parametrize("with_packet", [False, True])
    def test_unconfirmed_coarse_crossing(self, with_packet):
        # A weak on-bin tone in windows 2-11 crosses at 2x but not at 10x:
        # the 10x scores overrule the coarse decision, and the search
        # moves on to the strong preamble at window 22.
        segment = _tone_stream(39, [(2, 10, 40.0, 0.12)], n_windows=50)
        if with_packet:
            packet = _preamble_packet()
            segment[22 * _N + 37 : 22 * _N + 37 + packet.size] += 2.0 * packet
        n_starts = segment.size // _N - PARAMS.preamble_len + 1
        tone_starts = slice(0, 13)  # starts clear of the packet
        coarse = _per_start(segment, n_starts, detection.SCAN_OVERSAMPLE, 1e-3)[tone_starts]
        fine = _per_start(segment, n_starts, DEFAULT_OVERSAMPLE, 1e-3)[tone_starts]
        assert max(r.score for r in coarse) >= 1 > max(r.score for r in fine)
        expected = _reference_search(segment, earliest=True)
        assert expected.detected == with_packet
        assert expected.detected or expected.score < 1
        _assert_same(sliding_packet_search(PARAMS, segment, earliest=True), expected)
        memo = ScanMemo()
        _assert_same(sliding_packet_search(PARAMS, segment, earliest=True, memo=memo), expected)
        assert memo.windows_refined > 0

    @pytest.mark.parametrize(
        "seed,tones,earliest",
        [
            # The 10x horizon runs past the 2x one: the range must widen.
            (36637, [(2, 8, 2.75, 0.223), (8, 10, 147.25, 0.242)], True),
            # 10x crosses before 2x: the range must start a span earlier.
            (46658, [(11, 9, 125.75, 0.134)], True),
            (46658, [(11, 9, 125.75, 0.134)], False),
        ],
    )
    def test_pick_range_edges(self, seed, tones, earliest):
        segment = _tone_stream(seed, tones)
        expected = _reference_search(segment, earliest=earliest)
        assert expected.detected
        _assert_same(sliding_packet_search(PARAMS, segment, earliest=earliest), expected)
        _assert_same(expected, _fine_only_search(segment, earliest=earliest))

    @pytest.mark.parametrize("seed,amplitude", [(0, 0.0), (1, 0.08), (2, 0.08), (3, 2.0)])
    @pytest.mark.parametrize("earliest", [False, True])
    def test_fixed_streams(self, seed, amplitude, earliest):
        segment = _stream(seed, 9 * _N + 37, amplitude)
        expected = _reference_search(segment, earliest=earliest)
        _assert_same(sliding_packet_search(PARAMS, segment, earliest=earliest), expected)
        if amplitude == 2.0:
            assert expected.detected and expected.peaks


class TestScanMemoEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        packet_at=st.integers(min_value=0, max_value=24 * _N),
        amplitude=st.sampled_from([0.0, 0.08, 2.0]),  # noise, marginal, strong
        cuts=st.lists(
            st.tuples(_ORIGIN_STEP, st.integers(min_value=0, max_value=20 * _N)),
            min_size=1,
            max_size=8,
        ),
        earliest=st.booleans(),
        max_start_windows=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_memoized_search_matches_fresh_search(
        self, seed, packet_at, amplitude, cuts, earliest, max_start_windows
    ):
        stream = _stream(seed, packet_at, amplitude)
        memo = ScanMemo()
        origin = 0
        for step, length in cuts:
            origin = min(max(origin + step, 0), stream.size)
            segment = _first_starts(stream[origin : origin + length], max_start_windows)
            memoized = sliding_packet_search(
                PARAMS, segment, earliest=earliest, memo=memo, origin=origin
            )
            fresh = sliding_packet_search(PARAMS, segment, earliest=earliest)
            _assert_same(memoized, fresh)

    def test_window_steps_reuse_every_overlapping_window(self):
        stream = _stream(7, 10 * _N, 2.0)
        memo = ScanMemo()
        sliding_packet_search(PARAMS, stream[: 20 * _N], memo=memo)
        assert (memo.windows_transformed, memo.windows_reused) == (20, 0)
        result = sliding_packet_search(
            PARAMS, stream[4 * _N : 26 * _N], memo=memo, origin=4 * _N
        )
        assert (memo.windows_transformed, memo.windows_reused) == (6, 16)
        _assert_same(result, sliding_packet_search(PARAMS, stream[4 * _N : 26 * _N]))

    def test_pending_rescan_refines_each_window_once(self):
        # A detection whose frame has not arrived is rescanned from the
        # same origin on a longer segment: its 10x rows come from the memo.
        stream = _stream(9, 12 * _N, 2.0)
        memo = ScanMemo()
        first = sliding_packet_search(PARAMS, stream[: 30 * _N], memo=memo, earliest=True)
        assert first.detected and 0 < memo.windows_refined < 30
        again = sliding_packet_search(PARAMS, stream[: 32 * _N], memo=memo, earliest=True)
        assert again.start_window == first.start_window
        assert memo.windows_refined == 0
        _assert_same(again, sliding_packet_search(PARAMS, stream[: 32 * _N], earliest=True))

    def test_off_grid_origin_recomputes(self):
        stream = _stream(8, 5 * _N, 2.0)
        memo = ScanMemo()
        sliding_packet_search(PARAMS, stream[: 20 * _N], memo=memo)
        sliding_packet_search(PARAMS, stream[3 : 20 * _N], memo=memo, origin=3)
        assert (memo.windows_transformed, memo.windows_reused) == (19, 0)
