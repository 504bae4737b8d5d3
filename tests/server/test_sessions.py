"""Session registry: fcnt extension, replay/reset handling, JSONL persistence."""

import pytest

from repro.server.dedup import DeliveredFrame
from repro.server.frames import FCNT_PERIOD, UplinkFrame
from repro.server import sessions
from repro.server.sessions import DeviceRegistry, DeviceSession

#: One session line as written while the ADR margin, hysteresis and
#: smoothing were settable: device 2, SF10 start, five uplinks at
#: 18/21.5/14/19/23 dB alternating gateways 0/1, each fed to its ADR
#: controller.
LEGACY_SNAPSHOT_LINE = (
    '{"adr": {"current_sf": 7, "hysteresis_db": 3.0, "initial_sf": 10, '
    '"margin_db": 16.0, "smoothing": 0.25, "snr_ewma_db": 19.244140625}, '
    '"device_addr": 2, "fcnt32": 104, "gateways_seen": {"0": 3, "1": 2}, '
    '"last_seen_s": 4.0, "last_snr_db": 23.0, "n_replays": 0, '
    '"n_resets": 0, "n_uplinks": 5}'
)


def delivered(addr=1, fcnt=0, snr=0.0, t=0.0, gateways=(0,)):
    frame = UplinkFrame(
        gateway_id=gateways[0],
        device_addr=addr,
        fcnt=fcnt,
        snr_db=snr,
        received_s=t,
    )
    return DeliveredFrame(
        frame=frame, n_copies=len(gateways), gateways=tuple(gateways), first_seen_s=t
    )


class TestFcntValidation:
    def test_monotone_counters_accepted(self):
        registry = DeviceRegistry()
        for i, fcnt in enumerate([0, 1, 5, 100]):
            session, verdict = registry.observe(delivered(fcnt=fcnt, t=float(i)))
            assert verdict == "accepted"
        assert session.fcnt32 == 100
        assert session.n_uplinks == 4

    def test_rollover_extends_to_32_bits(self):
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=FCNT_PERIOD - 2, t=0.0))
        registry.observe(delivered(fcnt=FCNT_PERIOD - 1, t=1.0))
        session, verdict = registry.observe(delivered(fcnt=3, t=2.0))
        assert verdict == "accepted"
        # Raw counter wrapped; the extended counter kept counting.
        assert session.fcnt32 == FCNT_PERIOD + 3

    def test_replayed_frame_rejected(self):
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=5000, t=0.0))
        session, verdict = registry.observe(delivered(fcnt=4000, t=1.0))
        assert verdict == "replay"
        assert session.fcnt32 == 5000
        assert session.n_replays == 1
        assert session.n_uplinks == 1  # replay did not count as an uplink

    def test_gap_beyond_max_rejected(self, monkeypatch):
        monkeypatch.setattr(sessions, "DEFAULT_MAX_FCNT_GAP", 100)
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=0, t=0.0))
        _, verdict = registry.observe(delivered(fcnt=101, t=1.0))
        assert verdict == "replay"
        _, verdict = registry.observe(delivered(fcnt=100, t=2.0))
        assert verdict == "accepted"

    def test_gap_at_the_lorawan_bound(self):
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=1000, t=0.0))
        _, verdict = registry.observe(
            delivered(fcnt=1000 + sessions.DEFAULT_MAX_FCNT_GAP + 1, t=1.0)
        )
        assert verdict == "replay"
        session, verdict = registry.observe(
            delivered(fcnt=1000 + sessions.DEFAULT_MAX_FCNT_GAP, t=2.0)
        )
        assert verdict == "accepted"
        assert session.fcnt32 == 1000 + sessions.DEFAULT_MAX_FCNT_GAP

    def test_device_reset_restarts_counter(self):
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=5000, t=0.0))
        # A tiny raw counter that fails gap validation reads as a reboot.
        session, verdict = registry.observe(delivered(fcnt=0, t=1.0))
        assert verdict == "reset"
        assert session.fcnt32 == 0
        assert session.n_resets == 1
        # Counting resumes from the restart.
        _, verdict = registry.observe(delivered(fcnt=1, t=2.0))
        assert verdict == "accepted"

    def test_large_restart_is_replay_not_reset(self):
        registry = DeviceRegistry()
        registry.observe(delivered(fcnt=60000, t=0.0))
        _, verdict = registry.observe(delivered(fcnt=30000, t=1.0))
        assert verdict == "replay"

    def test_reset_threshold_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sessions, "DEFAULT_RESET_THRESHOLD", 3)
        registry = DeviceRegistry()
        registry.observe(delivered(addr=1, fcnt=5000, t=0.0))
        _, verdict = registry.observe(delivered(addr=1, fcnt=3, t=1.0))
        assert verdict == "reset"
        registry.observe(delivered(addr=2, fcnt=5000, t=0.0))
        _, verdict = registry.observe(delivered(addr=2, fcnt=4, t=1.0))
        assert verdict == "replay"


class TestRegistry:
    def test_auto_join_and_gateway_accounting(self):
        registry = DeviceRegistry()
        registry.observe(delivered(addr=7, fcnt=0, gateways=(0, 2)))
        registry.observe(delivered(addr=7, fcnt=1, gateways=(2,)))
        assert registry.n_joins == 1
        session = registry.get(7)
        assert session is not None
        assert session.gateways_seen == {0: 1, 2: 2}

    def test_eviction_is_idle_first_deterministic(self):
        registry = DeviceRegistry(max_devices=2)
        registry.observe(delivered(addr=1, fcnt=0, t=10.0))
        registry.observe(delivered(addr=2, fcnt=0, t=20.0))
        registry.observe(delivered(addr=3, fcnt=0, t=30.0))  # evicts addr 1
        assert registry.n_evicted == 1
        assert registry.get(1) is None
        assert {s.device_addr for s in registry.sessions()} == {2, 3}

    def test_sessions_sorted_by_address(self):
        registry = DeviceRegistry()
        for addr in (9, 3, 7):
            registry.observe(delivered(addr=addr, fcnt=0))
        assert [s.device_addr for s in registry.sessions()] == [3, 7, 9]


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        registry = DeviceRegistry(adr_initial_sf=10)
        for i in range(5):
            registry.observe(delivered(addr=2, fcnt=100 + i, snr=18.0, t=float(i)))
        registry.observe(delivered(addr=4, fcnt=0, snr=-5.0, t=9.0))
        path = tmp_path / "sessions.jsonl"
        registry.write_jsonl(str(path))

        restored = DeviceRegistry(adr_initial_sf=10)
        assert restored.read_jsonl(str(path)) == 2
        for addr in (2, 4):
            original, copy = registry.get(addr), restored.get(addr)
            assert copy is not None and original is not None
            assert copy.to_state() == original.to_state()
        # The restored ADR controller keeps smoothed state and assignment.
        session = restored.get(2)
        assert session.adr.smoothed_snr_db == pytest.approx(
            registry.get(2).adr.smoothed_snr_db
        )
        assert session.adr.spreading_factor == registry.get(2).adr.spreading_factor
        # And counter validation carries on seamlessly.
        _, verdict = restored.observe(delivered(addr=2, fcnt=105, t=10.0))
        assert verdict == "accepted"
        # Re-sent old counter (above the reset threshold): a true replay.
        _, verdict = restored.observe(delivered(addr=2, fcnt=102, t=11.0))
        assert verdict == "replay"

    def test_restore_respects_device_cap(self):
        source = DeviceRegistry()
        for addr in range(4):
            source.observe(delivered(addr=addr, fcnt=0, t=float(addr)))
        capped = DeviceRegistry(max_devices=2)
        assert capped.restore_jsonl(source.snapshot_jsonl()) == 4
        assert len(capped) == 2

    def test_restores_snapshot_with_legacy_adr_keys(self):
        restored = DeviceRegistry()
        assert restored.restore_jsonl(LEGACY_SNAPSHOT_LINE + "\n") == 1
        # The same session, rebuilt from its uplinks by today's code.
        replayed = DeviceRegistry(adr_initial_sf=10)
        for i, snr in enumerate([18.0, 21.5, 14.0, 19.0, 23.0]):
            session, _ = replayed.observe(
                delivered(addr=2, fcnt=100 + i, snr=snr, t=float(i), gateways=(i % 2,))
            )
            session.adr.report_snr(snr)
        copy, original = restored.get(2), replayed.get(2)
        assert copy.fcnt32 == original.fcnt32 == 104
        assert copy.adr.smoothed_snr_db == original.adr.smoothed_snr_db == 19.244140625
        assert copy.adr.spreading_factor == original.adr.spreading_factor == 7
        assert copy.to_state() == original.to_state()
        assert set(copy.to_state()["adr"]) == {"initial_sf", "snr_ewma_db", "current_sf"}
        # Both carry on identically.
        assert copy.adr.report_snr(-4.0) == original.adr.report_snr(-4.0)
        assert copy.adr.smoothed_snr_db == original.adr.smoothed_snr_db

    def test_from_state_round_trips_empty_ewma(self):
        session = DeviceSession.from_state(
            DeviceRegistry()._new_session(1).to_state()
        )
        assert session.adr.smoothed_snr_db is None
