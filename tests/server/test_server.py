"""NetworkServer unit behavior: lifecycle, counters, telemetry, restore."""

import pytest

from repro.gateway.telemetry import Telemetry, parse_prometheus_text
from repro.server.frames import UplinkFrame
from repro.server.server import NetworkServer, ServerConfig


def frame(gw, addr=1, fcnt=0, snr=0.0, t=0.0, seq=0):
    return UplinkFrame(
        gateway_id=gw,
        device_addr=addr,
        fcnt=fcnt,
        snr_db=snr,
        received_s=t,
        seq=seq,
    )


def server(**kwargs):
    kwargs.setdefault("dedup_window_s", 0.05)
    return NetworkServer(ServerConfig(**kwargs))


class TestConfig:
    def test_rejects_bad_initial_sf(self):
        with pytest.raises(ValueError, match="adr_initial_sf"):
            ServerConfig(adr_initial_sf=6)


class TestUplinkPath:
    def test_ingest_counters_per_gateway(self):
        srv = server()
        srv.handle_uplink(frame(0, fcnt=0, t=0.0))
        srv.handle_uplink(frame(1, fcnt=0, t=0.0))
        srv.handle_uplink(frame(0, fcnt=1, t=1.0))
        assert srv.n_ingested == 3
        assert srv.telemetry.counter("ingest.frames").value == 3
        assert srv.telemetry.counter("gw0.ingest.frames").value == 2
        assert srv.telemetry.counter("gw1.ingest.frames").value == 1

    def test_two_gateway_copies_deliver_once(self):
        srv = server()
        srv.handle_uplink(frame(0, fcnt=0, snr=3.0, t=0.0))
        srv.handle_uplink(frame(1, fcnt=0, snr=9.0, t=0.0))
        report = srv.finish()
        assert report.n_ingested == 2
        assert report.n_delivered == 1
        assert report.n_duplicates == 1
        assert report.delivered[0].frame.gateway_id == 1  # best SNR won

    def test_replay_reported_but_not_logged(self):
        srv = server()
        srv.handle_uplink(frame(0, fcnt=50, t=0.0))
        srv.handle_uplink(frame(0, fcnt=20, t=1.0))  # old counter
        report = srv.finish()
        assert report.n_replays == 1
        assert report.n_delivered == 1
        assert [u.frame.fcnt for u in report.delivered] == [50]
        assert srv.telemetry.counter("session.replay").value == 1

    def test_handle_uplink_after_finish_raises(self):
        srv = server()
        srv.handle_uplink(frame(0, fcnt=0, t=0.0))
        srv.finish()
        with pytest.raises(RuntimeError, match="finished"):
            srv.handle_uplink(frame(0, fcnt=1, t=1.0))

    def test_finish_flushes_open_window(self):
        srv = server(dedup_window_s=1000.0)
        srv.handle_uplink(frame(0, fcnt=0, t=0.0))
        assert srv.delivered() == []  # window still open
        report = srv.finish()
        assert report.n_delivered == 1

    def test_drain_commands_clears_queue(self):
        srv = server(adr_initial_sf=12)
        for i in range(4):
            srv.handle_uplink(frame(0, fcnt=i, snr=20.0, t=float(i)))
        srv.finish()
        commands = srv.drain_commands()
        assert commands  # strong link at SF12: upgrade issued
        assert srv.drain_commands() == []

    def test_delivered_log_bounded(self):
        srv = server(max_delivered_log=5)
        for i in range(50):
            srv.handle_uplink(frame(0, fcnt=i, t=float(i)))
        srv.finish()
        log = srv.delivered()
        assert len(log) == 5
        assert [u.frame.fcnt for u in log] == list(range(45, 50))


class TestTelemetryAbsorption:
    def test_gateway_state_namespaced(self):
        gw_telemetry = Telemetry()
        gw_telemetry.counter("ch3.sf8.decode.crc_ok").inc(7)
        srv = server()
        srv.absorb_gateway_telemetry(1, gw_telemetry.state())
        merged = srv.telemetry.counter("gw1.ch3.sf8.decode.crc_ok")
        assert merged.value == 7

    def test_absorbed_metrics_round_trip_prometheus(self):
        gw_telemetry = Telemetry()
        gw_telemetry.counter("ch3.sf8.decode.crc_ok").inc(7)
        srv = server()
        srv.absorb_gateway_telemetry(1, gw_telemetry.state())
        text = srv.telemetry.prometheus()
        samples = parse_prometheus_text(text)
        key = 'repro_decode_crc_ok_total{channel="3",gateway="1",sf="8"}'
        assert samples[key] == pytest.approx(7.0)


class TestSessionRestore:
    def test_restore_then_continue(self):
        srv0 = server()
        srv0.handle_uplink(frame(0, addr=9, fcnt=100, t=0.0))
        snapshot = srv0.finish().sessions_jsonl

        srv1 = server()
        assert srv1.restore_sessions(snapshot) == 1
        state = srv1.session_state(9)
        assert state is not None and state["fcnt32"] == 100
        # The restored counter still gates replays.
        srv1.handle_uplink(frame(0, addr=9, fcnt=90, t=1.0))
        assert srv1.finish().n_replays == 1

    def test_unknown_session_state_is_none(self):
        assert server().session_state(404) is None
