"""Race-witness coverage for concurrent ``NetworkServer`` callers.

Dynamic half of the R009 story for ``repro.server``: instrument the
live server, call it from several threads the way the live-gateway tap
does, and require that every observed cross-thread write was lock-held.
"""

from __future__ import annotations

import threading

from repro.server.frames import UplinkFrame
from repro.server.server import NetworkServer, ServerConfig
from repro.tools.analysis.witness import attach


def frame(gw, addr=1, fcnt=0, t=0.0, seq=0):
    return UplinkFrame(
        gateway_id=gw,
        device_addr=addr,
        fcnt=fcnt,
        snr_db=0.0,
        received_s=t,
        seq=seq,
    )


def make_server(**kwargs):
    kwargs.setdefault("dedup_window_s", 0.01)
    return NetworkServer(ServerConfig(**kwargs))


class TestConcurrentCallers:
    def test_direct_multithreaded_handle_uplink_is_race_free(self):
        # The live-gateway tap (Gateway on_outcome) calls handle_uplink
        # from decode worker threads; the witness must see every one of
        # those cross-thread writes performed under the server lock.
        server = make_server()
        witness = attach(server)

        def caller(addr: int) -> None:
            for i in range(20):
                server.handle_uplink(
                    frame(0, addr=addr, fcnt=i, t=0.01 * i, seq=i)
                )

        threads = [
            threading.Thread(target=caller, args=(addr,), name=f"dev{addr}")
            for addr in (1, 2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = server.finish()
        assert report.n_ingested == 80
        assert "_n_ingested" in witness.shared_written_attrs()
        assert witness.unguarded_shared_writes() == []
