"""The network server: dedup + sessions + ADR behind one lock.

:class:`NetworkServer` is the deployment-wide coordinator sitting above
N gateways.  Per uplink record it (1) deduplicates gateway copies
(:class:`repro.server.dedup.FrameDeduplicator`), (2) validates the frame
counter against the device's session
(:class:`repro.server.sessions.DeviceRegistry`) and (3) feeds accepted
uplinks' SNR into the ADR loop
(:class:`repro.server.adr.AdrEngine`), queueing any resulting downlink
commands for the caller to drain.

Thread safety: every public method serializes on one server lock -- the
sub-components are deliberately lock-free and documented as externally
synchronized, mirroring the decode pool's single-aggregation-lock
design.  That makes the server safe to drive from decode worker threads
(the live ``Gateway(on_outcome=...)`` tap) and keeps the race-witness
story simple (one lock to hold, one set of shared attributes to watch).

Telemetry reuses the gateway registry unchanged, so
``Telemetry.prometheus()`` exposition works on server metrics too; the
server's own instruments live under ``ingest.* / dedup.* / session.* /
adr.*`` and absorbed per-gateway registries are namespaced ``gw{g}.*``
(exported with a ``gateway`` label).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.gateway.telemetry import Telemetry
from repro.server.adr import AdrEngine
from repro.server.dedup import DEFAULT_WINDOW_S, DeliveredFrame, FrameDeduplicator
from repro.server.frames import DownlinkCommand, UplinkFrame
from repro.server.sessions import DeviceRegistry

@dataclass(frozen=True)
class ServerConfig:
    """Settings of one :class:`NetworkServer` deployment.

    ``dedup_window_s`` is the deduplicator's watermark lag,
    ``max_devices`` caps the session registry, ``adr_initial_sf`` is
    every new session's starting SF, and ``max_delivered_log`` caps the
    in-memory delivered-uplink log (``None`` keeps everything -- fine for
    tests, unsuitable for soak runs).  The dedup bounds, counter rules
    and ADR dynamics are module constants of :mod:`repro.server.dedup`,
    :mod:`repro.server.sessions` and :mod:`repro.mac.adr`.
    """

    dedup_window_s: float = DEFAULT_WINDOW_S
    max_devices: int = 10000
    adr_initial_sf: int = 12
    max_delivered_log: Optional[int] = None

    def __post_init__(self) -> None:
        if not 7 <= self.adr_initial_sf <= 12:
            raise ValueError(
                f"adr_initial_sf must be 7..12, got {self.adr_initial_sf}"
            )


@dataclass(frozen=True)
class DeliveredUplink:
    """One application-visible uplink: dedup result + session verdict."""

    delivered: DeliveredFrame
    verdict: str
    fcnt32: int

    @property
    def frame(self) -> UplinkFrame:
        """The winning (best-SNR) gateway copy."""
        return self.delivered.frame


@dataclass(frozen=True)
class ServerReport:
    """End-of-run summary returned by :meth:`NetworkServer.finish`."""

    n_ingested: int
    n_delivered: int
    n_duplicates: int
    n_replays: int
    n_resets: int
    n_devices: int
    delivered: Tuple[DeliveredUplink, ...]
    final_sf: Dict[int, int]
    sessions_jsonl: str


class NetworkServer:
    """Deployment-wide uplink processing; see module docs."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.telemetry = telemetry or Telemetry()
        self._lock = threading.Lock()
        self._dedup = FrameDeduplicator(
            window_s=self.config.dedup_window_s, telemetry=self.telemetry
        )
        self._registry = DeviceRegistry(
            max_devices=self.config.max_devices,
            adr_initial_sf=self.config.adr_initial_sf,
        )
        self._adr = AdrEngine(telemetry=self.telemetry)
        self._commands: List[DownlinkCommand] = []
        self._delivered: List[DeliveredUplink] = []
        self._n_ingested = 0
        self._n_delivered = 0
        self._finished = False

    # ------------------------------------------------------------------
    # Uplink path
    # ------------------------------------------------------------------
    def _process_delivered(
        self, delivered: DeliveredFrame
    ) -> DeliveredUplink:
        """Session + ADR handling for one deduplicated frame.

        Caller holds ``self._lock``.
        """
        session, verdict = self._registry.observe(delivered)
        self.telemetry.counter(f"session.{verdict}").inc()
        self.telemetry.gauge("session.devices").set(len(self._registry))
        uplink = DeliveredUplink(
            delivered=delivered, verdict=verdict, fcnt32=session.fcnt32
        )
        if verdict != "replay":
            self._n_delivered += 1
            self._commands.extend(
                self._adr.observe(
                    session, delivered.frame.snr_db, delivered.frame.received_s
                )
            )
            self._delivered.append(uplink)
            cap = self.config.max_delivered_log
            if cap is not None and len(self._delivered) > cap:
                del self._delivered[: len(self._delivered) - cap]
        return uplink

    def handle_uplink(self, frame: UplinkFrame) -> List[DeliveredUplink]:
        """Ingest one gateway copy; return uplinks whose window closed.

        The returned uplinks include replays (verdict ``"replay"``) so
        callers can observe rejections; only accepted/reset uplinks are
        logged and fed to ADR.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError("server already finished")
            self._n_ingested += 1
            self.telemetry.counter("ingest.frames").inc()
            self.telemetry.counter(f"gw{frame.gateway_id}.ingest.frames").inc()
            return [
                self._process_delivered(d) for d in self._dedup.offer(frame)
            ]

    def drain_commands(self) -> List[DownlinkCommand]:
        """Take (and clear) all queued downlink commands."""
        with self._lock:
            commands = self._commands
            self._commands = []
            return commands

    # ------------------------------------------------------------------
    # Gateway telemetry absorption
    # ------------------------------------------------------------------
    def absorb_gateway_telemetry(
        self, gateway_id: int, state: Dict[str, Dict[str, Any]]
    ) -> None:
        """Fold one gateway's ``Telemetry.state()`` into the server's.

        Instruments are namespaced ``gw{gateway_id}.`` so N gateways'
        identically-named metrics stay distinct (and pick up a
        ``gateway`` label in Prometheus exposition).
        """
        self.telemetry.merge(state, prefix=f"gw{gateway_id}.")

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def n_ingested(self) -> int:
        """Gateway copies ingested so far."""
        with self._lock:
            return self._n_ingested

    def delivered(self) -> List[DeliveredUplink]:
        """Accepted uplinks logged so far (bounded by config)."""
        with self._lock:
            return list(self._delivered)

    def session_state(self, device_addr: int) -> Optional[Dict[str, Any]]:
        """Snapshot of one device's session, or ``None`` if unknown."""
        with self._lock:
            session = self._registry.get(device_addr)
            return None if session is None else session.to_state()

    def restore_sessions(self, text: str) -> int:
        """Load a JSONL session snapshot; returns sessions loaded."""
        with self._lock:
            return self._registry.restore_jsonl(text)

    def finish(self) -> ServerReport:
        """Flush the dedup window and summarize the run.

        Idempotent-unsafe by design: further :meth:`handle_uplink` calls
        raise, since the dedup window is gone.
        """
        with self._lock:
            if not self._finished:
                self._finished = True
                for delivered in self._dedup.flush():
                    self._process_delivered(delivered)
            sessions = self._registry.sessions()
            return ServerReport(
                n_ingested=self._n_ingested,
                n_delivered=self._n_delivered,
                n_duplicates=self.telemetry.counter("dedup.duplicates").value,
                n_replays=sum(s.n_replays for s in sessions),
                n_resets=sum(s.n_resets for s in sessions),
                n_devices=len(sessions),
                delivered=tuple(self._delivered),
                final_sf={
                    s.device_addr: s.adr.spreading_factor for s in sessions
                },
                sessions_jsonl=self._registry.snapshot_jsonl(),
            )
