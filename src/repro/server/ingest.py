"""Multi-gateway ingestion: one deterministic merge into the server.

Gateway uplink streams reach one :class:`repro.server.NetworkServer`
through a **deterministic k-way merge**: frames are consumed in
ascending ``(received_s, gateway_id, seq)`` order.  Because the
deduplicator's output is a pure function of that merged order, a run's
deliveries depend only on the streams' contents, never on how they were
produced.

The merge requires each per-gateway stream to be time-ordered (gateways
emit decode outcomes in stream order), which is also what the dedup
watermark assumes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence, Tuple

from repro.server.frames import UplinkFrame
from repro.server.server import NetworkServer


def _order_key(frame: UplinkFrame) -> Tuple[float, int, int]:
    """The global ingestion order: time, then gateway, then arrival."""
    return (frame.received_s, frame.gateway_id, frame.seq)


def merge_streams(
    streams: Sequence[Iterable[UplinkFrame]],
) -> Iterable[UplinkFrame]:
    """Merge per-gateway time-ordered streams into the global order."""
    return heapq.merge(*streams, key=_order_key)


def run_streams(
    server: NetworkServer, streams: Sequence[Iterable[UplinkFrame]]
) -> int:
    """Feed merged streams through the server; returns frames ingested."""
    n = 0
    for frame in merge_streams(streams):
        server.handle_uplink(frame)
        n += 1
    return n


__all__ = ["merge_streams", "run_streams"]
