"""The gateway-side trace registry: sampling, collection, deterministic merge.

A :class:`TraceRecorder` sits next to the telemetry registry for one
gateway run.  The scanner records every detection, the worker pool
records every decode outcome (with its span tree when the job was
traced), and the run front-end contributes a header plus the synthetic
ground truth when available.  ``repro.trace.export`` serializes the
whole thing; ``repro.trace.forensics`` consumes the serialized form.

Sampling is *deterministic by job key*: whether a job is traced depends
only on its key and the configured rate, never on wall clock or worker
identity, so serial / thread / process runs of the same stream sample
the same packets.  Every job's trace is built, and the trace of every
job whose decode failed is kept whatever the rate, so the forensics
post-mortem is complete without paying full-rate trace retention on
healthy traffic.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.model import PacketTrace


@dataclass(frozen=True)
class TraceConfig:
    """Sampling policy for one gateway run.

    ``sample_rate`` is the fraction of jobs whose trace is retained
    regardless of outcome (1.0 = every job, 0.0 = none); the trace of
    every job that does not produce a CRC-verified payload is retained
    whatever the rate.
    """

    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )


@dataclass(frozen=True)
class TraceDirective:
    """Per-job tracing instruction, computed before dispatch.

    Frozen and picklable so the process executor can ship it to workers
    alongside the job.  The worker always builds a span tree; ``sampled``
    says whether it is kept unconditionally (vs. only on failure).
    """

    key: Tuple[int, ...]
    sampled: bool

    def keep(self, crc_ok: bool) -> bool:
        """Whether a finished job's trace is retained."""
        return self.sampled or not crc_ok


def sample_key(key: Sequence[int]) -> float:
    """Deterministic uniform-[0,1) hash of a job key.

    CRC32 of the decimal key rendering: stable across processes and
    Python versions (unlike ``hash()``), uniform enough for sampling.
    """
    text = ",".join(str(int(k)) for k in key)
    return zlib.crc32(text.encode("utf-8")) / 2.0**32


class TraceRecorder:
    """Thread-safe collection point for one run's provenance records."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.base_ts = time.time()
        self.header: Dict[str, Any] = {}
        self.truth: List[Dict[str, Any]] = []
        self._detections: List[Dict[str, Any]] = []
        self._outcomes: List[Dict[str, Any]] = []
        self._packets: List[PacketTrace] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Run-level context
    # ------------------------------------------------------------------
    def set_header(self, **fields: Any) -> None:
        """Merge run-level metadata (config, executor, seed, ...)."""
        with self._lock:
            self.header.update(fields)

    def set_ground_truth(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Attach synthetic-source ground truth for forensics matching."""
        with self._lock:
            self.truth = [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Per-job records
    # ------------------------------------------------------------------
    def directive(self, key: Tuple[int, ...]) -> TraceDirective:
        """The tracing instruction for the job keyed by ``key``."""
        sampled = (
            self.config.sample_rate > 0.0
            and sample_key(key) < self.config.sample_rate
        )
        return TraceDirective(key=key, sampled=sampled)

    def record_detection(
        self,
        *,
        job_id: int,
        key: Tuple[int, ...],
        channel: int,
        spreading_factor: Optional[int],
        start_sample: int,
        score: float,
        label: str = "",
    ) -> None:
        """Record one scanner detection (pre-dispatch, pre-decode)."""
        with self._lock:
            self._detections.append(
                {
                    "job_id": job_id,
                    "key": list(key),
                    "channel": channel,
                    "spreading_factor": spreading_factor,
                    "start_sample": start_sample,
                    "score": score,
                    "label": label,
                }
            )

    def record_outcome(
        self,
        *,
        job_id: int,
        key: Tuple[int, ...],
        channel: int,
        spreading_factor: Optional[int],
        start_sample: int,
        detection_score: float,
        crc_ok: bool,
        n_users: int,
        sync_retries: int,
        error: Optional[str],
        payload: Optional[bytes],
        users: Sequence[Tuple[float, str, bool]] = (),
        tier: str = "full",
        escalation_reason: Optional[str] = None,
        trace: Optional[PacketTrace] = None,
    ) -> None:
        """Record one decode outcome; keep its trace per the directive.

        ``users`` rows are ``(offset_bins, payload_hex, crc_ok)``
        triples, one per disentangled user -- the forensics layer uses
        the fractional parts of the offsets to recognize near-collided
        signatures.  ``tier`` / ``escalation_reason`` carry the decode
        cascade's verdict (which pipeline produced the outcome, and why
        Tier 0 declined the window, when it did).
        """
        row: Dict[str, Any] = {
            "job_id": job_id,
            "key": list(key),
            "channel": channel,
            "spreading_factor": spreading_factor,
            "start_sample": start_sample,
            "detection_score": detection_score,
            "crc_ok": crc_ok,
            "n_users": n_users,
            "sync_retries": sync_retries,
            "error": error,
            "tier": tier,
            "escalation_reason": escalation_reason,
            "payload": payload.hex() if payload is not None else None,
            "users": [
                {"offset_bins": off, "payload": hex_payload, "crc_ok": ok}
                for off, hex_payload, ok in users
            ],
        }
        keep = trace is not None and self.directive(key).keep(crc_ok)
        with self._lock:
            self._outcomes.append(row)
            if keep and trace is not None:
                self._packets.append(trace)

    # ------------------------------------------------------------------
    # Deterministic views
    # ------------------------------------------------------------------
    @property
    def detections(self) -> List[Dict[str, Any]]:
        """Detection rows sorted by key (stream order within a shard)."""
        with self._lock:
            return sorted(self._detections, key=lambda d: tuple(d["key"]))

    @property
    def outcomes(self) -> List[Dict[str, Any]]:
        """Outcome rows sorted by key, independent of decode interleaving."""
        with self._lock:
            return sorted(self._outcomes, key=lambda o: tuple(o["key"]))

    @property
    def packets(self) -> List[PacketTrace]:
        """Retained span trees, merged deterministically by job key.

        Workers append in completion order (racy across executors); the
        sort by key restores a canonical order, which is what makes the
        serial-vs-thread span-tree equality tests meaningful.
        """
        with self._lock:
            return sorted(self._packets, key=lambda p: p.key)

    def __len__(self) -> int:
        # Workers may be appending concurrently; snapshot under the lock
        # so the count is consistent with the views above.
        with self._lock:
            return len(self._packets)
