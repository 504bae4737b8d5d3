"""The detection-resolution ablation as a regression gate."""

import math

import pytest

from repro.core.detection import SCAN_OVERSAMPLE
from repro.core.dechirp import DEFAULT_OVERSAMPLE
from repro.experiments.ablations import preamble_detection_rate, snr_at_detection_rate


def _snr_at_pd90(oversample, spreading_factor, bin_offset):
    # A 1 dB grid around where an 8-window preamble reaches Pd 0.9.
    snrs = [-17.0 - 3 * (spreading_factor - 7) + k for k in range(4)]
    rates = [
        preamble_detection_rate(snr, oversample, spreading_factor, bin_offset, n_trials=200)
        for snr in snrs
    ]
    return snr_at_detection_rate(snrs, rates)


class TestDetectionResolution:
    @pytest.mark.parametrize("spreading_factor", [7, 8])
    @pytest.mark.parametrize("bin_offset", [0.0, 0.5])
    def test_scan_resolution_keeps_the_fine_sensitivity(self, spreading_factor, bin_offset):
        coarse = _snr_at_pd90(SCAN_OVERSAMPLE, spreading_factor, bin_offset)
        fine = _snr_at_pd90(DEFAULT_OVERSAMPLE, spreading_factor, bin_offset)
        assert not math.isnan(coarse) and not math.isnan(fine)
        assert abs(coarse - fine) <= 0.5


class TestSnrAtDetectionRate:
    def test_interpolates_the_first_crossing(self):
        assert snr_at_detection_rate([-3.0, -2.0, -1.0], [0.5, 0.8, 1.0]) == pytest.approx(-1.5)

    def test_curve_out_of_range_is_nan(self):
        assert math.isnan(snr_at_detection_rate([0.0, 1.0], [0.1, 0.5]))
        assert math.isnan(snr_at_detection_rate([0.0, 1.0], [0.95, 1.0]))
