"""Dedup edge cases the issue names: multi-gateway copies, rollover,
out-of-order arrival, bounded windows, late duplicates."""

import pytest

from repro.gateway.telemetry import Telemetry
from repro.server import dedup as dedup_module
from repro.server.dedup import FrameDeduplicator
from repro.server.frames import FCNT_PERIOD, UplinkFrame


def frame(gw, addr=1, fcnt=0, snr=0.0, t=0.0, seq=0):
    return UplinkFrame(
        gateway_id=gw,
        device_addr=addr,
        fcnt=fcnt,
        snr_db=snr,
        received_s=t,
        seq=seq,
    )


def drain(dedup, frames):
    out = []
    for f in frames:
        out.extend(dedup.offer(f))
    out.extend(dedup.flush())
    return out


class TestThreeGatewayCopies:
    def test_exactly_one_delivery_best_snr_wins(self):
        dedup = FrameDeduplicator(window_s=0.1)
        copies = [
            frame(0, snr=3.0, t=1.00),
            frame(1, snr=9.0, t=1.01),
            frame(2, snr=6.0, t=1.02),
        ]
        delivered = drain(dedup, copies)
        assert len(delivered) == 1
        assert delivered[0].best_gateway == 1
        assert delivered[0].n_copies == 3
        assert delivered[0].gateways == (0, 1, 2)
        assert delivered[0].first_seen_s == pytest.approx(1.00)

    def test_snr_tie_breaks_to_lower_gateway_id(self):
        dedup = FrameDeduplicator(window_s=0.1)
        delivered = drain(
            dedup,
            [frame(2, snr=5.0, t=1.0), frame(0, snr=5.0, t=1.01), frame(1, snr=5.0, t=1.02)],
        )
        assert len(delivered) == 1
        assert delivered[0].best_gateway == 0

    def test_tie_break_independent_of_arrival_order(self):
        copies = [frame(2, snr=5.0, t=1.0), frame(0, snr=5.0, t=1.0), frame(1, snr=5.0, t=1.0)]
        results = set()
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            delivered = drain(
                FrameDeduplicator(window_s=0.1), [copies[i] for i in order]
            )
            results.add(delivered[0].best_gateway)
        assert results == {0}


class TestWindowSemantics:
    def test_emission_waits_for_watermark(self):
        dedup = FrameDeduplicator(window_s=0.5)
        assert dedup.offer(frame(0, fcnt=1, t=1.0)) == []
        # Watermark at 1.4: window for fcnt=1 (opened at 1.0) still open.
        assert dedup.offer(frame(0, fcnt=2, t=1.4)) == []
        # Watermark reaches 1.5: fcnt=1 matures, fcnt=2 still pending.
        out = dedup.offer(frame(0, fcnt=3, t=1.5))
        assert [d.frame.fcnt for d in out] == [1]
        assert [d.frame.fcnt for d in dedup.flush()] == [2, 3]

    def test_out_of_order_copy_within_window_still_merges(self):
        dedup = FrameDeduplicator(window_s=0.5)
        dedup.offer(frame(0, fcnt=1, snr=1.0, t=1.2))
        # A second gateway's copy arrives "earlier" in stream time (its
        # feed lags); it lands inside the window and merges.
        dedup.offer(frame(1, fcnt=1, snr=8.0, t=1.1))
        delivered = dedup.flush()
        assert len(delivered) == 1
        assert delivered[0].best_gateway == 1
        assert delivered[0].first_seen_s == pytest.approx(1.1)

    def test_late_duplicate_after_emission_suppressed(self):
        telemetry = Telemetry()
        dedup = FrameDeduplicator(window_s=0.1, telemetry=telemetry)
        dedup.offer(frame(0, fcnt=1, t=1.0))
        emitted = dedup.offer(frame(0, fcnt=2, t=2.0))  # matures fcnt=1
        assert [d.frame.fcnt for d in emitted] == [1]
        assert dedup.offer(frame(1, fcnt=1, t=2.01)) == []  # straggler copy
        assert telemetry.counter("dedup.late_duplicates").value == 1
        # Still only one delivery of fcnt=1 overall.
        assert [d.frame.fcnt for d in dedup.flush()] == [2]

    def test_distinct_devices_never_merge(self):
        dedup = FrameDeduplicator(window_s=0.5)
        dedup.offer(frame(0, addr=1, fcnt=5, t=1.0))
        dedup.offer(frame(0, addr=2, fcnt=5, t=1.0))
        assert len(dedup.flush()) == 2


class TestRollover:
    def test_fcnt_rollover_keys_stay_distinct(self):
        dedup = FrameDeduplicator(window_s=0.5)
        dedup.offer(frame(0, fcnt=FCNT_PERIOD - 1, t=1.0))
        dedup.offer(frame(0, fcnt=0, t=1.05))  # rolled over
        delivered = dedup.flush()
        assert [d.frame.fcnt for d in delivered] == [FCNT_PERIOD - 1, 0]


class TestBounds:
    def test_pending_cap_forces_oldest_out(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "MAX_PENDING", 4)
        telemetry = Telemetry()
        dedup = FrameDeduplicator(window_s=100.0, telemetry=telemetry)
        for i in range(6):
            dedup.offer(frame(0, fcnt=i, t=1.0 + 0.01 * i))
        assert dedup.n_pending == 4
        assert telemetry.counter("dedup.evicted").value == 2
        # Evicted entries were emitted (oldest first), not lost.
        assert telemetry.counter("dedup.delivered").value == 2

    def test_done_window_bounded(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "DONE_WINDOW", 8)
        dedup = FrameDeduplicator(window_s=0.0)
        for i in range(100):
            dedup.offer(frame(0, fcnt=i % FCNT_PERIOD, t=float(i)))
        dedup.flush()
        assert dedup.n_done == 8

    def test_deterministic_emission_order(self):
        dedup = FrameDeduplicator(window_s=0.1)
        dedup.offer(frame(0, addr=5, fcnt=1, t=1.0))
        dedup.offer(frame(0, addr=3, fcnt=9, t=1.0))
        dedup.offer(frame(0, addr=4, fcnt=2, t=1.01))
        out = drain(dedup, [])
        assert [(d.frame.device_addr, d.frame.fcnt) for d in out] == [
            (3, 9),
            (5, 1),
            (4, 2),
        ]
