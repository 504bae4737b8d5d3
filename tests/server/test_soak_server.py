"""Soak: the server's memory stays bounded on long, hostile streams.

Tier-1 runs a scaled-down stream; ``SOAK=1`` (``make soak``) runs the
full-length version.  Every unbounded-growth candidate is asserted
against its configured cap after a stream long enough to overflow all
of them many times over: dedup pending/done windows, the device
registry, the delivered log, and the downlink command queue (drained
periodically, as a live deployment would).
"""

import os

import pytest

from repro.server import dedup
from repro.server.frames import FCNT_PERIOD, UplinkFrame
from repro.server.server import NetworkServer, ServerConfig

SOAK = os.environ.get("SOAK", "") not in ("", "0")

#: Scaled for tier-1; the soak run is 50x longer.
N_FRAMES = 200_000 if SOAK else 20_000
N_DEVICES = 500
MAX_DEVICES = 100
MAX_PENDING = 256
DONE_WINDOW = 512
MAX_DELIVERED_LOG = 1000


def stream(n_frames):
    """Adversarial long stream: device churn, rollover, and duplicates."""
    for i in range(n_frames):
        addr = i % N_DEVICES
        fcnt = (i // N_DEVICES) % FCNT_PERIOD
        t = 0.001 * i
        # Two gateway copies per uplink keeps the dedup window busy.
        for gw in (0, 1):
            yield UplinkFrame(
                gateway_id=gw,
                device_addr=addr,
                fcnt=fcnt,
                snr_db=float(gw),
                received_s=t,
                seq=i,
            )


class TestBoundedMemory:
    def test_long_run_respects_every_cap(self, monkeypatch):
        # The dedup bounds are module constants; shrink them so the
        # stream overflows them many times over.
        monkeypatch.setattr(dedup, "MAX_PENDING", MAX_PENDING)
        monkeypatch.setattr(dedup, "DONE_WINDOW", DONE_WINDOW)
        server = NetworkServer(
            ServerConfig(
                dedup_window_s=0.01,
                max_devices=MAX_DEVICES,
                max_delivered_log=MAX_DELIVERED_LOG,
                adr_initial_sf=10,
            )
        )
        drain_every = 10_000
        for i, frame in enumerate(stream(N_FRAMES)):
            server.handle_uplink(frame)
            if i % drain_every == 0:
                server.drain_commands()
                # Mid-flight: every structure within its bound.
                assert server._dedup.n_pending <= MAX_PENDING
                assert server._dedup.n_done <= DONE_WINDOW
                assert len(server._registry) <= MAX_DEVICES
                assert len(server.delivered()) <= MAX_DELIVERED_LOG
        server.drain_commands()
        report = server.finish()
        assert report.n_ingested == 2 * N_FRAMES
        assert report.n_delivered > 0
        assert server._dedup.n_pending == 0  # finish() flushed the window
        assert server._dedup.n_done <= DONE_WINDOW
        assert report.n_devices <= MAX_DEVICES
        assert len(report.delivered) <= MAX_DELIVERED_LOG
        # Churned devices were evicted, not accumulated.
        assert server._registry.n_evicted >= N_DEVICES - MAX_DEVICES

    def test_command_queue_drains_to_empty(self):
        server = NetworkServer(
            ServerConfig(dedup_window_s=0.0, adr_initial_sf=12)
        )
        for i in range(2000):
            server.handle_uplink(
                UplinkFrame(
                    gateway_id=0,
                    device_addr=i % 10,
                    fcnt=(i // 10) % FCNT_PERIOD,
                    snr_db=20.0,
                    received_s=0.001 * i,
                    seq=i,
                )
            )
        commands = server.drain_commands()
        assert commands  # strong links at SF12 produced ADR traffic
        assert server.drain_commands() == []

    @pytest.mark.skipif(not SOAK, reason="full soak only under SOAK=1")
    def test_telemetry_cardinality_bounded(self):
        # Instrument count must not grow with stream length -- only with
        # the (bounded) label space: per-gateway counters and fixed
        # server families.
        server = NetworkServer(
            ServerConfig(
                dedup_window_s=0.01,
                max_devices=MAX_DEVICES,
                max_delivered_log=MAX_DELIVERED_LOG,
            )
        )
        for frame in stream(50_000):
            server.handle_uplink(frame)
        server.finish()
        assert len(server.telemetry.snapshot()) < 30
