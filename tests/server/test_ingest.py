"""Ingest: the deterministic merge and its delivery into the server."""

from repro.server.frames import UplinkFrame
from repro.server.ingest import merge_streams, run_streams
from repro.server.server import NetworkServer, ServerConfig


def frame(gw, fcnt, t, addr=1, snr=0.0, seq=0):
    return UplinkFrame(
        gateway_id=gw,
        device_addr=addr,
        fcnt=fcnt,
        snr_db=snr,
        received_s=t,
        seq=seq,
    )


def make_streams(n_gateways=3, n_frames=40):
    """Per-gateway time-ordered streams with interleaved timestamps."""
    streams = {}
    for gw in range(n_gateways):
        streams[gw] = [
            frame(gw, fcnt=i, t=0.01 * i + 0.001 * gw, snr=float(gw), seq=i)
            for i in range(n_frames)
        ]
    return streams


def server(window_s=0.05):
    return NetworkServer(ServerConfig(dedup_window_s=window_s))


class TestMerge:
    def test_merge_is_global_time_order(self):
        streams = make_streams()
        merged = list(merge_streams([streams[g] for g in sorted(streams)]))
        keys = [(f.received_s, f.gateway_id, f.seq) for f in merged]
        assert keys == sorted(keys)

    def test_run_streams_delivers_each_uplink_once_from_best_gateway(self):
        srv = server()
        streams = make_streams()
        n = run_streams(srv, [streams[g] for g in sorted(streams)])
        report = srv.finish()
        assert n == report.n_ingested == 3 * 40
        # Every gateway heard every fcnt: one delivery each, two copies
        # collapsed, and the highest-SNR gateway (gw2) wins every time.
        assert [u.fcnt32 for u in report.delivered] == list(range(40))
        assert report.n_duplicates == 2 * 40
        assert {u.frame.gateway_id for u in report.delivered} == {2}
        assert {u.verdict for u in report.delivered} == {"accepted"}
