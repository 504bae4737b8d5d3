"""Oracle for the data stage: the fast decision loop against the old one.

:meth:`ChoirDecoder._decode_window` decides each user with one zero-padded
probe FFT and subtracts with one normal-equation fit over cached model
columns.  :func:`_reference_decode_window` keeps the loop it replaced --
one DTFT basis per near-maximal candidate and an SVD ``lstsq`` per
subtract, every column rebuilt per call -- as an executable oracle, the
way ``test_detection._reference_search`` keeps the old scan.  Both must
decide the same symbols on every window.
"""

import numpy as np
import pytest

from repro.core import ChoirDecoder
from repro.core.chanest import data_column
from repro.core.dechirp import dechirp_windows, oversampled_spectrum
from repro.core.offsets import UserEstimate
from repro.core.peaks import find_peaks
from repro.utils import circular_distance
from tests.core.conftest import PARAMS, make_collision

N = PARAMS.samples_per_symbol


def _evaluate_spectrum_at(dechirped, positions_bins):
    """Direct DTFT of one window at arbitrary fractional bins."""
    n = dechirped.shape[-1]
    basis = np.exp(-2j * np.pi * np.outer(positions_bins, np.arange(n)) / n)
    return basis @ dechirped


def _reference_decode_window(dechirped, users, prev_symbols, branches):
    """The per-candidate, per-call-lstsq decision loop, kept as an oracle.

    Adds ``"junk"`` / ``"conflict"`` to ``branches`` when the junk sweep
    or the conflict resolution ran, so tests can show they were exercised.
    """
    n = dechirped.size
    samples = np.arange(n)
    decided = np.zeros(len(users), dtype=np.int64)
    decided_users = []
    residual = dechirped
    order = sorted(range(len(users)), key=lambda i: users[i].channel_magnitude, reverse=True)

    def model_columns(indices, junk=None):
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
            columns.extend(np.exp(2j * np.pi * pos * samples / n) for pos in junk)
        return np.stack(columns, axis=-1)

    def subtract(indices, junk=None):
        if not indices and (junk is None or junk.size == 0):
            return dechirped
        columns = model_columns(indices, junk)
        amplitudes, *_ = np.linalg.lstsq(columns, dechirped, rcond=None)
        return dechirped - columns @ amplitudes

    def deviation_of(derotated, candidate):
        probe = np.abs(_evaluate_spectrum_at(derotated, candidate + np.array([-0.25, 0.0, 0.25])))
        denom = probe[0] - 2.0 * probe[1] + probe[2]
        if abs(denom) < 1e-30:
            return 0.0
        vertex = 0.5 * (probe[0] - probe[2]) / denom * 0.25
        return float(np.clip(vertex, -0.5, 0.5))

    def decide(signal, idx, exclude=None):
        user = users[idx]
        derotated = signal * np.exp(-2j * np.pi * user.position_bins * samples / n)
        magnitude = np.abs(np.fft.fft(derotated, n))
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
            deviation = abs(deviation_of(derotated, int(candidate)))
            mag_mismatch = abs(np.log(magnitude[candidate] / expected_mag))
            scores.append(5.0 * deviation + 0.5 * mag_mismatch)
        return int(candidates[int(np.argmin(scores))])

    for idx in order:
        decided[idx] = decide(residual, idx)
        decided_users.append(idx)
        residual = subtract(decided_users)
    junk_peaks = find_peaks(oversampled_spectrum(residual, 4), 4, threshold_snr=6.0, max_peaks=4)
    if junk_peaks:
        branches.add("junk")
        junk_positions = np.array([p.position_bins for p in junk_peaks], dtype=float)
        for _ in range(4):
            changed = False
            for idx in order:
                others = [i for i in decided_users if i != idx]
                foreign_junk = junk_positions[
                    circular_distance(junk_positions % 1.0, users[idx].fractional) > 0.12
                ]
                new_decision = decide(subtract(others, foreign_junk), idx)
                if new_decision != decided[idx]:
                    decided[idx] = new_decision
                    changed = True
            if not changed:
                break

    def claim_deviation(idx):
        mu = users[idx].position_bins
        derotated = dechirped * np.exp(-2j * np.pi * mu * samples / n)
        return abs(deviation_of(derotated, int(decided[idx])))

    for _ in range(3):
        conflict = None
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
        branches.add("conflict")
        i, j = conflict
        loser = i if claim_deviation(i) > claim_deviation(j) else j
        others = [k for k in decided_users if k != loser]
        decided[loser] = decide(subtract(others), loser, exclude={int(decided[loser])})
    return decided


def _assert_same_decisions(decoder, windows, users):
    """Run both loops window by window; return the branches exercised."""
    branches = set()
    prev = np.zeros(len(users), dtype=np.int64)
    for m, window in enumerate(windows):
        expected = _reference_decode_window(window, users, prev, branches)
        got = decoder._decode_window(window, users, prev, window_index=m)
        assert np.array_equal(got, expected), f"window {m}: {got} != {expected}"
        prev = expected
    return branches


#: ``(cfo_bins, delay_samples, amplitude)`` per user, rendered through the
#: radio and channel models and estimated from the preamble.
RENDERED_CASES = {
    "near-far": [(50.45, 3.1, 60.0), (20.8, 6.4, 2.0)],
    "near-far-3": [(12.4, 2.6, 40.0), (90.7, 7.2, 4.0), (170.2, 1.4, 1.5)],
    "near-equal": [(12.4, 2.6, 10.0), (90.7, 7.2, 9.0), (170.2, 4.4, 11.0)],
    "delayed": [(30.3, 12.5, 8.0), (100.6, 25.0, 6.0), (160.1, 40.2, 7.0), (220.85, 5.5, 9.0)],
    "fraction-close": [(40.30, 2.0, 10.0), (120.36, 5.0, 9.0), (200.33, 3.0, 8.0)],
}


def _rendered(case, seed, cut):
    """A rendered collision's users and data windows, cut ``cut`` samples in.

    A non-zero ``cut`` is what a later rung of the gateway's alignment
    ladder hands the decoder: a window grid off the packet's by a
    fraction of a symbol.  At most four users are estimated.
    """
    rng = np.random.default_rng(seed)
    packet, _ = make_collision(rng, RENDERED_CASES[case], n_symbols=10)
    decoder = ChoirDecoder(PARAMS)
    samples = packet.samples[cut:]
    users = decoder.estimate_users(samples, max_users=4)
    windows = dechirp_windows(PARAMS, samples, n_windows=10, start=PARAMS.preamble_len * N)
    return decoder, windows, users


class TestRenderedCollisions:
    @pytest.mark.parametrize("cut", [0, N // 4, 3 * N // 4])
    @pytest.mark.parametrize("case", sorted(RENDERED_CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_decisions(self, case, seed, cut):
        decoder, windows, users = _rendered(case, seed, cut)
        assert 1 <= len(users) <= 4
        _assert_same_decisions(decoder, windows, users)

    @pytest.mark.parametrize(
        "case,seed,cut,branch",
        [
            ("fraction-close", 0, 0, "junk"),
            ("delayed", 0, 0, "junk"),
            ("near-far-3", 0, 3 * N // 4, "conflict"),
            ("near-far-3", 1, 3 * N // 4, "conflict"),
        ],
    )
    def test_branch_is_exercised(self, case, seed, cut, branch):
        decoder, windows, users = _rendered(case, seed, cut)
        assert branch in _assert_same_decisions(decoder, windows, users)


def _synthetic(rng, specs, n_windows, noise=1.0):
    """Data windows rendered straight from the decoder's window model.

    ``specs`` holds ``(mu_bins, delay_samples, amplitude)`` per user; the
    users' estimates are exact, so the signatures sit exactly as close as
    the spec says.
    """
    users = [
        UserEstimate(position_bins=mu, channels=np.full(PARAMS.preamble_len - 1, amp + 0j),
                     delay_samples=delay)
        for mu, delay, amp in specs
    ]
    symbols = rng.integers(0, N, (n_windows, len(specs)))
    windows = []
    prev = np.zeros(len(specs), dtype=np.int64)
    for m in range(n_windows):
        window = sum(
            amp * np.exp(2j * np.pi * rng.uniform()) * data_column(mu, delay, int(symbols[m, k]),
                                                                  int(prev[k]), N)
            for k, (mu, delay, amp) in enumerate(specs)
        )
        window = window + np.sqrt(noise / 2) * (rng.normal(size=N) + 1j * rng.normal(size=N))
        windows.append(window)
        prev = symbols[m]
    return users, np.array(windows)


class TestSyntheticWindows:
    """Exact-model windows with signatures placed where the spec says."""

    @pytest.mark.parametrize("seed", range(3))
    def test_signatures_within_a_tenth_of_a_bin(self, seed):
        rng = np.random.default_rng(100 + seed)
        decoder = ChoirDecoder(PARAMS)
        branches = set()
        for mus in ([40.30, 120.36], [40.30, 120.38, 200.34], [10.5, 77.55, 140.48, 201.52]):
            specs = [(mu, float(rng.uniform(0.0, 12.0)), float(rng.uniform(4.0, 8.0)))
                     for mu in mus]
            users, windows = _synthetic(rng, specs, n_windows=12)
            branches |= _assert_same_decisions(decoder, windows, users)
            # A user the preamble stage missed leaves an unmodelled tone:
            # the junk sweep absorbs it.
            users_missing, windows_missing = _synthetic(rng, specs + [(230.2, 0.0, 6.0)], 8)
            branches |= _assert_same_decisions(decoder, windows_missing, users_missing[:-1])
        assert "junk" in branches

    @pytest.mark.parametrize("ratio_db", [0.0, 1.0, 25.0, 35.0])
    def test_power_ratios_with_delays(self, ratio_db):
        rng = np.random.default_rng(int(ratio_db) + 11)
        decoder = ChoirDecoder(PARAMS)
        weak = 3.0
        strong = weak * 10 ** (ratio_db / 20)
        specs = [(60.21, 9.5, strong), (150.68, 31.25, weak), (230.44, 0.0, weak * 1.2)]
        users, windows = _synthetic(rng, specs, n_windows=12)
        _assert_same_decisions(decoder, windows, users)
