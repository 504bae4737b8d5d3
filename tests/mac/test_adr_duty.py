"""Tests for adaptive data rate and duty-cycle accounting."""

import pytest

from repro.mac import adr as adr_module
from repro.mac.adr import AdrController, spreading_factor_for_snr
from repro.mac.duty import DutyCycleTracker
from repro.phy import LoRaParams


class TestSfLadder:
    def test_high_snr_fastest(self):
        assert spreading_factor_for_snr(25.0) == 7

    def test_low_snr_slowest(self):
        assert spreading_factor_for_snr(-20.0) == 12

    def test_monotone(self):
        sfs = [spreading_factor_for_snr(snr) for snr in range(-25, 26, 5)]
        assert sfs == sorted(sfs, reverse=True)


class TestAdrController:
    def test_starts_conservative(self):
        assert AdrController().spreading_factor == 12

    def test_upgrades_on_good_snr(self):
        adr = AdrController()
        for _ in range(10):
            adr.report_snr(25.0)
        assert adr.spreading_factor == 7

    def test_downgrades_immediately_on_bad_snr(self):
        adr = AdrController(initial_sf=7)
        adr.report_snr(25.0)
        # One terrible report moves the EWMA some of the way; several move
        # the assignment down without any hysteresis delay.
        for _ in range(8):
            adr.report_snr(-10.0)
        assert adr.spreading_factor > 7

    def test_hysteresis_blocks_marginal_upgrade(self, monkeypatch):
        # Smoothed SNR just past the SF9 boundary must NOT flip a SF10
        # client: the upgrade needs `HYSTERESIS_DB` of headroom.  With
        # smoothing 1 the EWMA is the last report.
        monkeypatch.setattr(adr_module, "SMOOTHING", 1.0)
        assert adr_module.HYSTERESIS_DB == 3.0
        adr = AdrController(initial_sf=10)
        boundary = 2.0  # the SF9 assignment requirement
        adr.report_snr(boundary + 1.0)  # above boundary, below +3 dB
        assert adr.spreading_factor == 10
        adr.report_snr(boundary + 5.0)
        assert adr.spreading_factor == 9

    def test_hysteresis_under_default_smoothing(self):
        # 0.5 dB past the SF9 boundary plus the 3 dB band upgrades; the
        # boundary itself does not, however many reports arrive.
        adr = AdrController(initial_sf=10)
        for _ in range(40):
            adr.report_snr(2.0 + 2.9)
        assert adr.spreading_factor == 10
        for _ in range(40):
            adr.report_snr(2.0 + 3.5)
        assert adr.spreading_factor == 9

    def test_ewma_smooths_outliers(self, monkeypatch):
        monkeypatch.setattr(adr_module, "SMOOTHING", 0.1)
        adr = AdrController(initial_sf=11)
        adr.report_snr(-5.0)  # consistent with SF11
        assert adr.spreading_factor == 11
        adr.report_snr(40.0)  # single outlier must not flip the assignment
        assert adr.spreading_factor == 11

    def test_ewma_uses_the_smoothing_constant(self):
        adr = AdrController(initial_sf=11)
        adr.report_snr(-5.0)
        assert adr.smoothed_snr_db == -5.0  # first report seeds the EWMA
        adr.report_snr(3.0)
        assert adr.smoothed_snr_db == -5.0 + adr_module.SMOOTHING * 8.0

    def test_params_for(self):
        adr = AdrController(initial_sf=9)
        params = adr.params_for(LoRaParams(spreading_factor=7, bandwidth=125e3))
        assert params.spreading_factor == 9
        assert params.bandwidth == 125e3

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_sf"):
            AdrController(initial_sf=5)


class TestDutyCycle:
    def test_budget_accounting(self):
        tracker = DutyCycleTracker(duty_cycle=0.01, window_s=100.0)
        assert tracker.budget_remaining_s(0.0) == pytest.approx(1.0)
        tracker.record_transmission(0.0, 0.4)
        assert tracker.budget_remaining_s(1.0) == pytest.approx(0.6)

    def test_blocks_when_exhausted(self):
        tracker = DutyCycleTracker(duty_cycle=0.01, window_s=100.0)
        tracker.record_transmission(0.0, 1.0)
        assert not tracker.can_transmit(1.0, 0.1)

    def test_window_expiry_restores_budget(self):
        tracker = DutyCycleTracker(duty_cycle=0.01, window_s=100.0)
        tracker.record_transmission(0.0, 1.0)
        assert tracker.can_transmit(150.0, 0.5)

    def test_max_packet_rate(self):
        tracker = DutyCycleTracker(duty_cycle=0.01)
        # 57 ms airtime at 1% duty -> ~0.175 packets/s.
        assert tracker.max_packet_rate_hz(0.0573) == pytest.approx(0.1745, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="duty_cycle"):
            DutyCycleTracker(duty_cycle=0.0)
        with pytest.raises(ValueError, match="window"):
            DutyCycleTracker(window_s=-1.0)
        tracker = DutyCycleTracker()
        with pytest.raises(ValueError, match="duration"):
            tracker.record_transmission(0.0, -1.0)
        with pytest.raises(ValueError, match="airtime"):
            tracker.max_packet_rate_hz(0.0)

    def test_retransmissions_burn_budget_faster(self):
        # The regulatory face of the paper's retransmission metric: at
        # ALOHA's 4 tx/packet a node sustains 1/4 the reporting rate.
        tracker = DutyCycleTracker(duty_cycle=0.01)
        airtime = 0.0573
        choir_rate = tracker.max_packet_rate_hz(airtime * 1.4)
        aloha_rate = tracker.max_packet_rate_hz(airtime * 4.0)
        assert choir_rate / aloha_rate == pytest.approx(4.0 / 1.4, rel=0.01)
