"""Multi-gateway frame deduplication with a bounded sliding window.

Every gateway in range hears (and independently decodes) the same device
uplink, so the server receives up to one copy per gateway for each
``(device_addr, fcnt)``.  :class:`FrameDeduplicator` collapses those
copies into exactly one :class:`DeliveredFrame`, keeping the *best* copy
(highest SNR; ties broken deterministically) -- LoRaWAN network servers
do the same to pick the downlink gateway and to feed ADR with the best
observed link margin.

Timing uses a **watermark**: the deduplicator trusts each gateway feed to
be time-ordered, tracks the latest ``received_s`` seen across all feeds,
and emits a pending frame once the watermark has advanced ``window_s``
past the frame's first reception -- at that point no in-order feed can
still produce a copy.  This makes emission a pure function of the merged
frame sequence (the E2E determinism guarantee; see
:mod:`repro.server.ingest`).

Memory is bounded by construction: at most :data:`MAX_PENDING` in-window
entries (oldest evicted first, counted) and a ring of the last
:data:`DONE_WINDOW` emitted keys so straggler copies arriving after
emission are suppressed and counted rather than re-delivered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.gateway.telemetry import Telemetry
from repro.server.frames import UplinkFrame

#: Default dedup window: how far the watermark must pass a frame's first
#: reception before it is emitted.  Real gateway backhauls jitter by tens
#: of milliseconds; simulation feeds are near-synchronous.
DEFAULT_WINDOW_S = 0.2

#: Hard cap on concurrently pending keys; the oldest entry is
#: force-emitted when a new key would exceed it (counted as
#: ``dedup.evicted``).
MAX_PENDING = 4096

#: How many recently emitted keys are remembered for late-duplicate
#: suppression.
DONE_WINDOW = 8192


@dataclass(frozen=True)
class DeliveredFrame:
    """One deduplicated uplink: the best copy plus reception diversity."""

    frame: UplinkFrame
    n_copies: int
    gateways: Tuple[int, ...]
    first_seen_s: float

    @property
    def best_gateway(self) -> int:
        """The gateway whose copy won best-SNR selection."""
        return self.frame.gateway_id


@dataclass
class _Pending:
    """In-window aggregation state for one ``(device_addr, fcnt)`` key."""

    best: UplinkFrame
    first_seen_s: float
    n_copies: int = 1
    gateways: Set[int] = field(default_factory=set)


def _better(a: UplinkFrame, b: UplinkFrame) -> bool:
    """True when copy ``a`` beats copy ``b``.

    Higher SNR wins; ties fall to the lower gateway id, then the lower
    per-gateway sequence number -- total and deterministic, so best-copy
    selection never depends on arrival interleaving.
    """
    return (-a.snr_db, a.gateway_id, a.seq) < (-b.snr_db, b.gateway_id, b.seq)


class FrameDeduplicator:
    """Collapse per-gateway uplink copies into single deliveries.

    Not internally locked: :class:`repro.server.NetworkServer` serializes
    access under its own lock (mirroring how the gateway's pool guards
    its aggregation state).

    Parameters
    ----------
    window_s:
        Watermark lag before a pending frame matures (see module docs).
    telemetry:
        Optional registry receiving ``dedup.*`` counters/gauges.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self.window_s = window_s
        self._telemetry = telemetry
        self._pending: Dict[Tuple[int, int], _Pending] = {}
        self._done: OrderedDict[Tuple[int, int], None] = OrderedDict()
        self._watermark_s = float("-inf")

    # ------------------------------------------------------------------
    @property
    def watermark_s(self) -> float:
        """Latest reception time observed across all feeds."""
        return self._watermark_s

    @property
    def n_pending(self) -> int:
        """Keys currently aggregating inside the window."""
        return len(self._pending)

    @property
    def n_done(self) -> int:
        """Emitted keys currently remembered for late-dup suppression."""
        return len(self._done)

    def _count(self, metric: str, n: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(f"dedup.{metric}").inc(n)

    def _mark_done(self, key: Tuple[int, int]) -> None:
        self._done[key] = None
        self._done.move_to_end(key)
        while len(self._done) > DONE_WINDOW:
            self._done.popitem(last=False)

    def _emit(self, key: Tuple[int, int]) -> DeliveredFrame:
        entry = self._pending.pop(key)
        self._mark_done(key)
        self._count("delivered")
        if self._telemetry is not None:
            self._telemetry.gauge("dedup.pending").set(len(self._pending))
        return DeliveredFrame(
            frame=entry.best,
            n_copies=entry.n_copies,
            gateways=tuple(sorted(entry.gateways)),
            first_seen_s=entry.first_seen_s,
        )

    def _mature(self) -> List[DeliveredFrame]:
        """Emit every pending entry the watermark has passed.

        Emission order is sorted by ``(first_seen_s, device_addr, fcnt)``
        -- a deterministic function of frame content, never of dict
        insertion interleaving.
        """
        ripe = sorted(
            (
                key
                for key, entry in self._pending.items()
                if entry.first_seen_s + self.window_s <= self._watermark_s
            ),
            key=lambda key: (self._pending[key].first_seen_s, key),
        )
        return [self._emit(key) for key in ripe]

    # ------------------------------------------------------------------
    def offer(self, frame: UplinkFrame) -> List[DeliveredFrame]:
        """Ingest one gateway copy; return any frames that matured.

        The returned list holds frames whose window *closed* because this
        frame advanced the watermark -- usually earlier frames, not this
        one.  Call :meth:`flush` at end of stream for the remainder.
        """
        key = frame.key
        if key in self._done:
            self._count("late_duplicates")
            self._count("duplicates")
        elif key in self._pending:
            entry = self._pending[key]
            entry.n_copies += 1
            entry.gateways.add(frame.gateway_id)
            entry.first_seen_s = min(entry.first_seen_s, frame.received_s)
            if _better(frame, entry.best):
                entry.best = frame
            self._count("duplicates")
        else:
            if len(self._pending) >= MAX_PENDING:
                # Force-emit the oldest entry to stay bounded.
                oldest = min(
                    self._pending,
                    key=lambda k: (self._pending[k].first_seen_s, k),
                )
                self._count("evicted")
                forced = [self._emit(oldest)]
            else:
                forced = []
            self._pending[key] = _Pending(
                best=frame,
                first_seen_s=frame.received_s,
                gateways={frame.gateway_id},
            )
            if self._telemetry is not None:
                self._telemetry.gauge("dedup.pending").set(len(self._pending))
            if frame.received_s > self._watermark_s:
                self._watermark_s = frame.received_s
            return forced + self._mature()
        if frame.received_s > self._watermark_s:
            self._watermark_s = frame.received_s
        return self._mature()

    def flush(self) -> List[DeliveredFrame]:
        """Emit everything still pending (end of stream)."""
        ripe = sorted(
            self._pending,
            key=lambda key: (self._pending[key].first_seen_s, key),
        )
        return [self._emit(key) for key in ripe]
