"""Tests for multi-spreading-factor demultiplexing (Sec. 5.2, note 4)."""

import numpy as np
import pytest

from repro.channel.collider import receive_mixed_sf
from repro.core.multisf import (
    MultiSfDecoder,
    cross_sf_interference_penalty_db,
    reconstruct_user_waveform,
    subtract_branch,
)
from repro.hardware import LoRaRadio
from repro.phy import LoRaParams


def _mixed_capture(seed, sf_assignments, gain=12.0, n_symbols=12, decoder=None):
    rng = np.random.default_rng(seed)
    decoder = decoder or MultiSfDecoder(
        spreading_factors=tuple(sorted(set(sf_assignments))),
    )
    transmissions, truth = [], {}
    for i, sf in enumerate(sf_assignments):
        params = decoder.params_for(sf)
        radio = LoRaRadio(params, node_id=i, rng=rng)
        symbols = rng.integers(0, params.chips_per_symbol, n_symbols)
        truth[i] = (sf, symbols)
        transmissions.append((radio, symbols, gain + 0j))
    capture, users = receive_mixed_sf(transmissions, rng=rng)
    return decoder, capture, truth


def _branch_accuracies(results, truth):
    accs = []
    for branch in results:
        for du in branch.users:
            candidates = [
                float(np.mean(du.symbols == s))
                for _, (sf, s) in truth.items()
                if sf == branch.spreading_factor
            ]
            accs.append(max(candidates) if candidates else 0.0)
    return accs


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiSfDecoder(spreading_factors=())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            MultiSfDecoder(spreading_factors=(7, 7))

    def test_mixed_rate_radios_rejected(self):
        rng = np.random.default_rng(0)
        r1 = LoRaRadio(LoRaParams(spreading_factor=7, bandwidth=125e3), rng=rng)
        r2 = LoRaRadio(LoRaParams(spreading_factor=7, bandwidth=250e3), rng=rng)
        with pytest.raises(ValueError, match="bandwidth"):
            receive_mixed_sf(
                [(r1, np.zeros(2, dtype=int), 1 + 0j), (r2, np.zeros(2, dtype=int), 1 + 0j)]
            )


class TestPaperExample:
    def test_five_sensors_sf_7_7_8_8_9(self):
        # The exact scenario of Sec. 5.2 note (4).
        decoder, capture, truth = _mixed_capture(5, [7, 7, 8, 8, 9])
        results = decoder.decode(capture, {7: 12, 8: 12, 9: 12}, cancel_across_sf=False)
        per_sf = {b.spreading_factor: b.n_users for b in results}
        assert per_sf == {7: 2, 8: 2, 9: 1}
        accs = _branch_accuracies(results, truth)
        assert np.mean(accs) > 0.7

    def test_cross_sf_cancellation_helps(self):
        decoder, capture, truth = _mixed_capture(0, [7, 7, 8, 8, 9])
        plain = decoder.decode(capture, {7: 12, 8: 12, 9: 12}, cancel_across_sf=False)
        cancelled = decoder.decode(capture, {7: 12, 8: 12, 9: 12}, cancel_across_sf=True)
        mean_plain = np.mean(_branch_accuracies(plain, truth))
        mean_cancelled = np.mean(_branch_accuracies(cancelled, truth))
        assert mean_cancelled >= mean_plain - 0.05

    def test_inactive_branch_empty(self):
        decoder, capture, truth = _mixed_capture(2, [7, 7])
        decoder9 = MultiSfDecoder(spreading_factors=(7, 9))
        # Rebuild capture against the (7, 9)-aware decoder's params.
        decoder9, capture, truth = _mixed_capture(2, [7, 7], decoder=decoder9)
        results = decoder9.decode(capture, {7: 12})
        per_sf = {b.spreading_factor: b.n_users for b in results}
        assert per_sf[7] == 2
        assert per_sf[9] == 0


class TestReconstruction:
    def test_reconstruction_cancels_clean_user(self):
        decoder, capture, truth = _mixed_capture(3, [9], gain=15.0)
        results = decoder.decode(capture, {9: 12})
        users = results[0].users
        assert len(users) == 1
        params = decoder.params_for(9)
        residual = subtract_branch(capture, params, users)
        before = float(np.mean(np.abs(capture) ** 2))
        after = float(np.mean(np.abs(residual) ** 2))
        assert after < before / 20.0  # > 13 dB of cancellation

    def test_unit_waveform_magnitude(self):
        decoder, capture, _ = _mixed_capture(4, [8], gain=10.0)
        user = decoder.decode(capture, {8: 12})[0].users[0]
        unit = reconstruct_user_waveform(decoder.params_for(8), user)
        active = unit[np.abs(unit) > 0]
        assert np.allclose(np.abs(active), 1.0, atol=1e-9)


class TestPenaltyModel:
    def test_penalty_small_for_lp_wan_ratios(self):
        assert cross_sf_interference_penalty_db(8, 9, other_power_ratio=10.0) < 0.5

    def test_penalty_grows_with_power(self):
        weak = cross_sf_interference_penalty_db(7, 8, other_power_ratio=1.0)
        strong = cross_sf_interference_penalty_db(7, 8, other_power_ratio=100.0)
        assert strong > weak

    def test_penalty_shrinks_with_sf(self):
        low_sf = cross_sf_interference_penalty_db(7, 9, other_power_ratio=50.0)
        high_sf = cross_sf_interference_penalty_db(10, 9, other_power_ratio=50.0)
        assert high_sf < low_sf
