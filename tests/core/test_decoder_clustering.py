"""Tests for the clustering-based decode path (Sec. 6.2 pipeline)."""

import numpy as np
import pytest

from repro.core import ChoirDecoder
from repro.utils import circular_distance
from tests.core.conftest import PARAMS, make_collision

N_BINS = PARAMS.chips_per_symbol


def _accuracies(users, packet, streams):
    out = []
    for u, s in zip(packet.users, streams):
        truth = u.true_offset_bins(PARAMS) % N_BINS
        best = 0.0
        for du in users:
            if circular_distance(du.offset_bins, truth, period=N_BINS) < 0.5:
                best = max(best, float(np.mean(du.symbols == s)))
        out.append(best)
    return out


class TestClusteringDecode:
    def test_matches_sic_on_balanced_pair(self):
        rng = np.random.default_rng(0)
        packet, streams = make_collision(rng, [(12.4, 2.6, 20.0), (90.7, 7.2, 15.0)])
        decoder = ChoirDecoder(PARAMS)
        clustered = decoder.decode(packet.samples, streams[0].size, method="clustering")
        assert _accuracies(clustered, packet, streams) == [1.0, 1.0]

    def test_three_users(self):
        rng = np.random.default_rng(1)
        packet, streams = make_collision(
            rng, [(15.2, 1.0, 20.0), (60.7, 3.0, 15.0), (170.9, 7.0, 10.0)]
        )
        decoder = ChoirDecoder(PARAMS)
        clustered = decoder.decode(packet.samples, streams[0].size, method="clustering")
        assert min(_accuracies(clustered, packet, streams)) > 0.9

    def test_sic_stronger_under_near_far(self):
        # The documented trade-off: peak-detection clustering cannot see a
        # user buried under another's leakage; SIC can.
        rng = np.random.default_rng(2)
        packet, streams = make_collision(rng, [(50.45, 3.1, 60.0), (20.8, 6.4, 2.0)])
        sic = ChoirDecoder(PARAMS).decode(
            packet.samples, streams[0].size, method="sic"
        )
        clustered = ChoirDecoder(PARAMS).decode(
            packet.samples, streams[0].size, method="clustering"
        )
        sic_weak = _accuracies(sic, packet, streams)[1]
        clu_weak = _accuracies(clustered, packet, streams)[1]
        assert sic_weak >= clu_weak

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(3)
        packet, streams = make_collision(rng, [(12.4, 0.0, 20.0)])
        decoder = ChoirDecoder(PARAMS)
        with pytest.raises(ValueError, match="method"):
            decoder.decode(packet.samples, streams[0].size, method="magic")
