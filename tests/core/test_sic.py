"""Tests for phased successive interference cancellation."""

import numpy as np
import pytest

from repro.core.dechirp import dechirp_windows
from repro.core.sic import _merge_duplicates, phased_sic
from repro.utils import circular_distance
from tests.core.conftest import PARAMS, make_collision

N_BINS = PARAMS.chips_per_symbol


def _preamble_windows(packet):
    return dechirp_windows(
        PARAMS,
        packet.samples,
        n_windows=PARAMS.preamble_len - 1,
        start=PARAMS.samples_per_symbol,
    )


def _found(estimates, truth_mu, tol=0.3):
    return any(
        circular_distance(e.position_bins, truth_mu, period=N_BINS) < tol
        for e in estimates
    )


class TestPhasedSic:
    def test_equal_power_pair(self):
        rng = np.random.default_rng(0)
        packet, _ = make_collision(rng, [(10.4, 2.0, 10.0), (99.7, 5.0, 10.0)])
        estimates = phased_sic(_preamble_windows(packet))
        assert len(estimates) == 2

    def test_near_far_weak_user_recovered(self):
        # The defining test: a user 26 dB weaker, hidden under the strong
        # user's leakage at coarse detection, is exposed after phase-1
        # subtraction.
        rng = np.random.default_rng(1)
        packet, _ = make_collision(rng, [(50.45, 3.0, 60.0), (83.8, 6.0, 3.0)])
        estimates = phased_sic(_preamble_windows(packet))
        truths = [u.true_offset_bins(PARAMS) % N_BINS for u in packet.users]
        assert _found(estimates, truths[0])
        assert _found(estimates, truths[1])

    def test_no_ghosts_on_strong_pair(self):
        rng = np.random.default_rng(2)
        packet, _ = make_collision(rng, [(20.3, 4.0, 40.0), (150.8, 9.0, 30.0)])
        estimates = phased_sic(_preamble_windows(packet))
        assert len(estimates) == 2

    def test_five_users(self):
        rng = np.random.default_rng(3)
        users = [(15.2, 1.0, 25.0), (60.7, 3.0, 18.0), (110.4, 5.0, 12.0),
                 (170.9, 7.0, 8.0), (220.3, 9.0, 5.0)]
        packet, _ = make_collision(rng, users)
        estimates = phased_sic(_preamble_windows(packet))
        truths = [u.true_offset_bins(PARAMS) % N_BINS for u in packet.users]
        assert sum(_found(estimates, t) for t in truths) == 5

    def test_max_users_budget(self):
        rng = np.random.default_rng(4)
        packet, _ = make_collision(
            rng, [(15.2, 0.0, 25.0), (60.7, 0.0, 18.0), (110.4, 0.0, 12.0)]
        )
        estimates = phased_sic(_preamble_windows(packet), max_users=2)
        assert len(estimates) <= 2

    def test_noise_only(self):
        rng = np.random.default_rng(5)
        noise = (rng.normal(size=(7, 256)) + 1j * rng.normal(size=(7, 256))) / np.sqrt(2)
        estimates = phased_sic(noise, threshold_snr=5.0)
        assert len(estimates) <= 1

    def test_ghost_floor_filters_weak_artifacts(self):
        rng = np.random.default_rng(6)
        packet, _ = make_collision(rng, [(40.45, 12.0, 80.0)])
        estimates = phased_sic(_preamble_windows(packet))
        # A single strong user must not spawn extra "users".
        assert len(estimates) == 1

    def test_delay_estimates_propagated(self):
        rng = np.random.default_rng(7)
        packet, _ = make_collision(rng, [(30.3, 5.5, 30.0)])
        estimates = phased_sic(_preamble_windows(packet))
        assert estimates[0].delay_samples == pytest.approx(5.5, abs=0.3)


class TestMergeDuplicates:
    def test_collapses_near_positions(self):
        rng = np.random.default_rng(8)
        packet, _ = make_collision(rng, [(50.4, 0.0, 20.0)])
        windows = _preamble_windows(packet)
        positions = np.array([50.4, 50.5, 120.0])
        delays = np.zeros(3)
        merged_pos, merged_del = _merge_duplicates(positions, delays, windows, 0.75)
        assert merged_pos.size == 2
        assert np.any(np.abs(merged_pos - 120.0) < 1e-9)

    def test_single_position_untouched(self):
        windows = np.ones((2, 256), dtype=complex)
        pos, del_ = _merge_duplicates(np.array([5.0]), np.zeros(1), windows, 0.75)
        assert pos.size == 1


class TestClusterDeterminism:
    def test_clusters_emitted_in_deterministic_index_order(self):
        # Regression for the R010 finding: cluster discovery used to
        # seed components via set.pop() and scan candidates in set
        # iteration order.  Components must now come out seeded by their
        # smallest member, ascending, on every run.
        from repro.core.sic import _find_clusters

        positions = np.array([10.0, 11.0, 60.0, 61.0, 120.0])
        for _ in range(5):
            clusters = _find_clusters(positions, n_bins=128, radius=2.0)
            assert clusters == [[0, 1], [2, 3], [4]]
