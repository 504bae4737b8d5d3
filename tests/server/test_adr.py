"""Server-side ADR engine: command emission, quiescence, power trim."""

import pytest

from repro.mac.adr import HYSTERESIS_DB, AdrController
from repro.server.adr import POWER_LADDER_DBM, AdrEngine, power_for_headroom
from repro.server.sessions import DeviceSession


def session(addr=1, initial_sf=10):
    return DeviceSession(
        device_addr=addr, adr=AdrController(initial_sf=initial_sf)
    )


class TestAdrEngine:
    def test_high_snr_upgrades_and_goes_quiet(self):
        engine = AdrEngine()
        dev = session(initial_sf=10)
        commands = []
        for i in range(8):
            commands.extend(engine.observe(dev, 20.0, float(i)))
        sf_commands = [c for c in commands if c.reason == "adr-sf"]
        assert len(sf_commands) == 1
        assert sf_commands[0].spreading_factor == 7
        assert engine.n_upgrades == 1
        # Converged: the last reports emitted nothing.
        assert engine.observe(dev, 20.0, 9.0) == []

    def test_low_snr_downgrades(self):
        engine = AdrEngine()
        dev = session(initial_sf=10)
        commands = []
        for i in range(8):
            commands.extend(engine.observe(dev, -5.0, float(i)))
        assert commands
        assert commands[-1].spreading_factor > 10
        assert engine.n_downgrades >= 1

    def test_power_stepdown_with_headroom(self):
        engine = AdrEngine()
        dev = session(initial_sf=7)
        commands = []
        for i in range(6):
            commands.extend(engine.observe(dev, 35.0, float(i)))
        # Huge margin above the SF7 requirement: power steps down.
        assert commands
        assert commands[-1].tx_power_dbm < POWER_LADDER_DBM[0]
        assert commands[-1].reason == "adr-power"

    def test_power_spends_only_headroom_beyond_hysteresis(self):
        engine = AdrEngine()
        dev = session(initial_sf=7)
        # 16 dB is the SF7 requirement; 6.5 dB above it, 3 dB of that is
        # the upgrade band, leaving one 2 dB step (3.5 // 2).
        commands = engine.observe(dev, 16.0 + 6.5, 0.0)
        assert [c.tx_power_dbm for c in commands] == [POWER_LADDER_DBM[1]]
        assert power_for_headroom(6.5 - HYSTERESIS_DB) == POWER_LADDER_DBM[1]

    def test_command_carries_issue_time(self):
        engine = AdrEngine()
        dev = session(initial_sf=12)
        commands = engine.observe(dev, 25.0, 3.5)
        assert commands and commands[0].issued_s == pytest.approx(3.5)


class TestPowerLadder:
    def test_no_headroom_full_power(self):
        assert power_for_headroom(0.0) == POWER_LADDER_DBM[0]
        assert power_for_headroom(-10.0) == POWER_LADDER_DBM[0]

    def test_each_two_db_buys_a_step(self):
        assert power_for_headroom(2.0) == POWER_LADDER_DBM[1]
        assert power_for_headroom(5.9) == POWER_LADDER_DBM[2]

    def test_floor_at_ladder_bottom(self):
        assert power_for_headroom(100.0) == POWER_LADDER_DBM[-1]
