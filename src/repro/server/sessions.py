"""Join/session state: the server's per-device registry.

Each device the deployment hears gets a :class:`DeviceSession` tracking
its extended 32-bit frame counter, reception history and a dedicated
:class:`repro.mac.adr.AdrController`.  The registry implements the
LoRaWAN 1.0.x counter rules the deduplicator cannot (it only sees 16-bit
values within a short time window):

* **extension** -- the transmitted ``FCntUp`` is the low 16 bits of a
  32-bit counter; the server picks the smallest 32-bit candidate ahead of
  the last validated value, which carries sessions across the 2^16
  rollover;
* **replay rejection** -- a candidate more than
  :data:`DEFAULT_MAX_FCNT_GAP` ahead is treated as a stale/replayed frame
  and rejected;
* **reset detection** -- rejected frames whose raw counter is tiny
  (``<=`` :data:`DEFAULT_RESET_THRESHOLD`) are instead interpreted as a
  device reboot (counters restart at 0 after a rejoin) and the session
  restarts.

Sessions round-trip through JSONL (:meth:`DeviceRegistry.snapshot_jsonl`
/ :meth:`DeviceRegistry.restore_jsonl`), so a server can be stopped and
resumed without re-learning counters or ADR state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.mac.adr import AdrController
from repro.server.dedup import DeliveredFrame
from repro.server.frames import FCNT_PERIOD

#: Largest forward jump in the extended counter the server accepts
#: (LoRaWAN's MAX_FCNT_GAP).
DEFAULT_MAX_FCNT_GAP = 16384

#: Raw (16-bit) counters at or below this are read as a device reset
#: when they fail gap validation.
DEFAULT_RESET_THRESHOLD = 16


@dataclass
class DeviceSession:
    """Mutable per-device server state."""

    device_addr: int
    adr: AdrController
    fcnt32: int = -1
    n_uplinks: int = 0
    n_replays: int = 0
    n_resets: int = 0
    last_seen_s: float = 0.0
    last_snr_db: float = 0.0
    gateways_seen: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Frame-counter validation
    # ------------------------------------------------------------------
    def classify_fcnt(self, fcnt16: int) -> Tuple[str, int]:
        """Validate a raw counter against session state.

        Returns ``(verdict, fcnt32)`` where verdict is ``"accepted"``
        (fcnt32 is the new extended counter), ``"reset"`` (device
        rebooted; fcnt32 restarts at the raw value) or ``"replay"``
        (frame rejected; fcnt32 is the unchanged session counter).
        """
        if self.fcnt32 < 0:
            return "accepted", fcnt16
        candidate = (self.fcnt32 & ~(FCNT_PERIOD - 1)) | fcnt16
        if candidate <= self.fcnt32:
            candidate += FCNT_PERIOD
        if candidate - self.fcnt32 <= DEFAULT_MAX_FCNT_GAP:
            return "accepted", candidate
        if fcnt16 <= DEFAULT_RESET_THRESHOLD:
            return "reset", fcnt16
        return "replay", self.fcnt32

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """JSON-ready session state (including the ADR controller's)."""
        return {
            "device_addr": self.device_addr,
            "fcnt32": self.fcnt32,
            "n_uplinks": self.n_uplinks,
            "n_replays": self.n_replays,
            "n_resets": self.n_resets,
            "last_seen_s": self.last_seen_s,
            "last_snr_db": self.last_snr_db,
            "gateways_seen": {str(g): n for g, n in self.gateways_seen.items()},
            "adr": {
                "initial_sf": self.adr.initial_sf,
                "snr_ewma_db": self.adr.smoothed_snr_db,
                "current_sf": self.adr.spreading_factor,
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DeviceSession":
        """Rebuild a session from :meth:`to_state` output.

        Older snapshots also carry ADR ``margin_db``, ``hysteresis_db``
        and ``smoothing`` keys; they load too, and those keys are
        ignored, since they always held the :mod:`repro.mac.adr`
        constants.
        """
        adr_state = state["adr"]
        adr = AdrController(initial_sf=int(adr_state["initial_sf"]))
        # Restore the controller mid-flight: __post_init__ reset the
        # assignment to initial_sf, so re-apply the snapshot's dynamics.
        adr._snr_ewma_db = (
            None
            if adr_state["snr_ewma_db"] is None
            else float(adr_state["snr_ewma_db"])
        )
        adr._current_sf = int(adr_state["current_sf"])
        return cls(
            device_addr=int(state["device_addr"]),
            adr=adr,
            fcnt32=int(state["fcnt32"]),
            n_uplinks=int(state["n_uplinks"]),
            n_replays=int(state["n_replays"]),
            n_resets=int(state["n_resets"]),
            last_seen_s=float(state["last_seen_s"]),
            last_snr_db=float(state["last_snr_db"]),
            gateways_seen={
                int(g): int(n) for g, n in state["gateways_seen"].items()
            },
        )


class DeviceRegistry:
    """Auto-joining device table with bounded size and JSONL persistence.

    Not internally locked: :class:`repro.server.NetworkServer` serializes
    access under its own lock.

    Parameters
    ----------
    max_devices:
        Hard cap on tracked sessions; when a new device joins past the
        cap, the session idle longest (smallest ``last_seen_s``, ties to
        the lowest address) is evicted -- counted by the server.
    adr_initial_sf:
        The spreading factor each new session's :class:`AdrController`
        starts at.

    Counter validation uses the module constants (see module docs).
    """

    def __init__(
        self,
        max_devices: int = 10000,
        adr_initial_sf: int = 12,
    ) -> None:
        if max_devices < 1:
            raise ValueError(f"max_devices must be >= 1, got {max_devices}")
        self.max_devices = max_devices
        self.adr_initial_sf = adr_initial_sf
        self._sessions: Dict[int, DeviceSession] = {}
        self.n_joins = 0
        self.n_evicted = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, device_addr: int) -> Optional[DeviceSession]:
        """The session for ``device_addr``, or ``None`` if unknown."""
        return self._sessions.get(device_addr)

    def sessions(self) -> List[DeviceSession]:
        """All sessions, ordered by device address."""
        return [self._sessions[addr] for addr in sorted(self._sessions)]

    def _new_session(self, device_addr: int) -> DeviceSession:
        if len(self._sessions) >= self.max_devices:
            idle = min(
                self._sessions.values(),
                key=lambda s: (s.last_seen_s, s.device_addr),
            )
            del self._sessions[idle.device_addr]
            self.n_evicted += 1
        session = DeviceSession(
            device_addr=device_addr,
            adr=AdrController(initial_sf=self.adr_initial_sf),
        )
        self._sessions[device_addr] = session
        self.n_joins += 1
        return session

    # ------------------------------------------------------------------
    def observe(self, delivered: DeliveredFrame) -> Tuple[DeviceSession, str]:
        """Account one deduplicated uplink; returns (session, verdict).

        Verdicts: ``"accepted"`` / ``"reset"`` (both update the session's
        counters and reception stats) or ``"replay"`` (only the replay
        count moves; callers should drop the frame and must not feed it
        to ADR).
        """
        frame = delivered.frame
        session = self._sessions.get(frame.device_addr)
        if session is None:
            session = self._new_session(frame.device_addr)
        verdict, fcnt32 = session.classify_fcnt(frame.fcnt)
        if verdict == "replay":
            session.n_replays += 1
            return session, verdict
        if verdict == "reset":
            session.n_resets += 1
        session.fcnt32 = fcnt32
        session.n_uplinks += 1
        session.last_seen_s = frame.received_s
        session.last_snr_db = frame.snr_db
        for gateway_id in delivered.gateways:
            session.gateways_seen[gateway_id] = (
                session.gateways_seen.get(gateway_id, 0) + 1
            )
        return session, verdict

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot_jsonl(self) -> str:
        """One JSON object per session, ordered by device address."""
        rows = [
            json.dumps(session.to_state(), sort_keys=True)
            for session in self.sessions()
        ]
        return "\n".join(rows) + ("\n" if rows else "")

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`snapshot_jsonl` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.snapshot_jsonl())

    def restore_jsonl(self, text: str) -> int:
        """Load sessions from snapshot text; returns how many loaded.

        Restored sessions replace same-address entries; the registry cap
        applies (idle sessions evict as usual).
        """
        n_loaded = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            session = DeviceSession.from_state(json.loads(line))
            if (
                session.device_addr not in self._sessions
                and len(self._sessions) >= self.max_devices
            ):
                idle = min(
                    self._sessions.values(),
                    key=lambda s: (s.last_seen_s, s.device_addr),
                )
                del self._sessions[idle.device_addr]
                self.n_evicted += 1
            self._sessions[session.device_addr] = session
            n_loaded += 1
        return n_loaded

    def read_jsonl(self, path: str) -> int:
        """Load sessions from a snapshot file; returns how many loaded."""
        with open(path) as handle:
            return self.restore_jsonl(handle.read())
