"""The tiered decode cascade: Tier-0 fast path, full Choir on escalation.

Policy home for *which decoder runs on which window* (DESIGN.md Sec. 16).
All escalation decisions live here -- repro-lint rule R012 keeps gateway
and server code from importing :mod:`repro.core.fastpath` or growing
ad-hoc ``if collided:`` decoder selection; callers pick a tier by name
through :func:`build_pipeline` and hand every window to the returned
pipeline's ``decode_window``.

Tiers
-----
``full``
    :class:`ChoirPipeline` -- grid alignment plus the alignment-ladder
    retry loop around :class:`repro.core.ChoirDecoder` (the behaviour
    the gateway always had; bit-identical results).
``cascade``
    :class:`CascadePipeline` -- Tier-0
    (:class:`repro.core.fastpath.FastPathDecoder`) on windows the
    collision discriminator calls clean, escalation to the full
    pipeline on ``collided`` / ``ambiguous`` / ``no-preamble-peak``
    evidence, ``truncated`` windows, or a Tier-0 CRC failure.
``fast``
    Tier-0 only, never escalate -- the measurement configuration that
    isolates the fast path's own loss profile.

Instrumentation is duck-typed: ``decode_window`` takes any object with
``counter(name).inc()`` and ``timer(name)`` (the gateway passes its
job-local :class:`repro.gateway.telemetry.Telemetry`); the default
:data:`NULL_INSTRUMENTS` makes standalone use free.  Trace spans ride
:mod:`repro.trace.context` exactly like the detector's ``detect.align``
events do.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.decoder import ChoirDecoder
from repro.core.detection import align_to_window_grid
from repro.core.fastpath import (
    AMBIGUOUS,
    CLEAN,
    COLLIDED,
    FASTPATH_OVERSAMPLE,
    NO_PREAMBLE,
    CascadeThresholds,
    FastPathDecoder,
)
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams
from repro.trace import context as trace_context
from repro.utils.rng import RngLike

#: Accepted decode-tier names (CLI ``--decode-tier`` and config fields).
DECODE_TIERS: Tuple[str, ...] = ("full", "cascade", "fast")

#: Tier labels stamped on outcomes and telemetry.
TIER0 = "tier0"
TIER_FULL = "full"

#: Escalation reasons (the ``decode.escalated.{reason}`` counter suffixes
#: and the forensics ``escalation_reason`` vocabulary).
REASON_COLLIDED = COLLIDED
REASON_AMBIGUOUS = AMBIGUOUS
REASON_NO_PREAMBLE = NO_PREAMBLE
REASON_CRC_FAIL = "crc-fail"
REASON_TRUNCATED = "truncated"

ESCALATION_REASONS: Tuple[str, ...] = (
    REASON_COLLIDED,
    REASON_AMBIGUOUS,
    REASON_NO_PREAMBLE,
    REASON_CRC_FAIL,
    REASON_TRUNCATED,
)

_REASON_FOR_VERDICT = {
    COLLIDED: REASON_COLLIDED,
    AMBIGUOUS: REASON_AMBIGUOUS,
    NO_PREAMBLE: REASON_NO_PREAMBLE,
}


class _NullCounter:
    def inc(self, n: int = 1) -> None:
        """Discard the increment."""


class NullInstruments:
    """No-op stand-in for a telemetry registry (standalone pipeline use)."""

    def counter(self, name: str) -> _NullCounter:
        """A counter that discards increments."""
        return _NULL_COUNTER

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """A timer context that records nothing."""
        yield


_NULL_COUNTER = _NullCounter()
NULL_INSTRUMENTS = NullInstruments()


@dataclass(frozen=True)
class UserFrame:
    """One decoded user's payload attempt within a window."""

    offset_bins: float
    payload: bytes
    crc_ok: bool


@dataclass(frozen=True)
class WindowDecode:
    """What a pipeline made of one packet window.

    ``tier`` names the tier that produced the users (:data:`TIER0` or
    :data:`TIER_FULL`); ``escalation_reason`` is set whenever Tier 0
    declined the window (on the ``fast`` tier it records why the window
    *would* have escalated, with ``tier`` still :data:`TIER0`).
    """

    users: Tuple[UserFrame, ...]
    crc_ok: bool
    sync_retries: int = 0
    tier: str = TIER_FULL
    escalation_reason: Optional[str] = None

    @property
    def escalated(self) -> bool:
        """Whether the full pipeline ran because Tier 0 declined."""
        return self.tier == TIER_FULL and self.escalation_reason is not None


class ChoirPipeline:
    """The full decode path: grid alignment + alignment-ladder retries.

    Moved verbatim from the gateway worker so the cascade can reuse it
    as its escalation target; span names (``align``, ``attempt``) and
    instrument names (``decode.align_s``, ``decode.attempts``) are part
    of the trace/telemetry contract and must not drift.
    """

    tier = TIER_FULL

    def __init__(
        self,
        params: LoRaParams,
        rng: RngLike = None,
        synchronize: bool = True,
        coding_rate: int = 4,
        sync_search_symbols: int = 0,
        max_users: Optional[int] = None,
    ) -> None:
        self.params = params
        self.decoder = ChoirDecoder(params, rng=rng)
        self.framer = LoRaFramer(params, coding_rate=coding_rate)
        self.synchronize = synchronize
        self.sync_search_symbols = sync_search_symbols
        self.max_users = max_users

    def _decode_at(
        self,
        samples: np.ndarray,
        offset: int,
        n_data_symbols: int,
        payload_len: int,
    ) -> List[UserFrame]:
        """Decode ``samples[offset:]`` and CRC-check every user found."""
        users = self.decoder.decode(
            samples[offset:], n_data_symbols, max_users=self.max_users
        )
        results: List[UserFrame] = []
        for user in users:
            if user.symbols.size < self.framer.n_symbols_for_payload(payload_len):
                continue
            frame = user.decode_payload(self.framer, payload_len)
            results.append(
                UserFrame(
                    offset_bins=user.offset_bins,
                    payload=frame.payload,
                    crc_ok=frame.crc_ok,
                )
            )
        return results

    def decode_window(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
        instruments: NullInstruments = NULL_INSTRUMENTS,
    ) -> WindowDecode:
        """Align, then decode with the CRC-oracle alignment ladder."""
        n = self.params.samples_per_symbol
        if self.synchronize:
            candidate_range = (
                (0, self.sync_search_symbols * n)
                if self.sync_search_symbols > 0
                else None
            )
            with trace_context.span("align"), instruments.timer("decode.align_s"):
                base, align_score = align_to_window_grid(
                    self.params,
                    samples,
                    candidate_range=candidate_range,
                )
                trace_context.annotate(offset=base, score=float(align_score))
            # The decoder's sweet spot is a grid a fraction of a window
            # *after* the true boundary (the small data leak is absorbed by
            # the boundary-glitch model), while the ridge's "latest" pick can
            # overshoot it by a variable amount.  Quarter-window ladder steps
            # cover the overshoot spread (biased earlier) without gaps.
            offsets = [base]
            for delta in (-n // 4, n // 4, -n // 2, -3 * n // 4):
                candidate = base + delta
                if candidate >= 0 and candidate not in offsets:
                    offsets.append(candidate)
        else:
            offsets = [0]
        results: List[UserFrame] = []
        retries = 0
        for attempt, offset in enumerate(offsets):
            with trace_context.span("attempt", index=attempt, offset=int(offset)):
                instruments.counter("decode.attempts").inc()
                attempt_results = self._decode_at(
                    samples, offset, n_data_symbols, payload_len
                )
                trace_context.add_event(
                    "attempt.result",
                    n_users=len(attempt_results),
                    n_crc_ok=sum(1 for r in attempt_results if r.crc_ok),
                )
            if attempt == 0:
                results = attempt_results
            else:
                retries += 1
            if any(r.crc_ok for r in attempt_results):
                results = attempt_results
                break
        return WindowDecode(
            users=tuple(results),
            crc_ok=any(r.crc_ok for r in results),
            sync_retries=retries,
            tier=TIER_FULL,
        )


class CascadePipeline:
    """Tier-0 fast path with discriminator-gated escalation.

    ``full`` is the escalation target (a :class:`ChoirPipeline`), or
    ``None`` for the never-escalate ``fast`` tier.
    """

    def __init__(
        self,
        params: LoRaParams,
        full: Optional[ChoirPipeline] = None,
        thresholds: Optional[CascadeThresholds] = None,
        coding_rate: int = 4,
        oversample: int = FASTPATH_OVERSAMPLE,
    ) -> None:
        self.params = params
        self.full = full
        self.thresholds = thresholds if thresholds is not None else CascadeThresholds()
        self.fast = FastPathDecoder(params, oversample=oversample)
        self.framer = LoRaFramer(params, coding_rate=coding_rate)

    @property
    def tier(self) -> str:
        """The configured tier name: ``"cascade"`` or ``"fast"``."""
        return "cascade" if self.full is not None else "fast"

    def _tier0(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
        instruments: NullInstruments,
    ) -> Tuple[Optional[WindowDecode], Optional[str]]:
        """Run Tier 0: ``(result, None)`` on success, else the reason.

        A CRC-failing clean decode returns both -- the partial result
        (kept by the ``fast`` tier) and the ``crc-fail`` reason the
        cascade escalates on.
        """
        with trace_context.span("decode.tier0"):
            instruments.counter("decode.tier0.attempts").inc()
            start = self.fast.estimate_packet_start(samples)
            evidence = self.fast.analyze_preamble(samples, start)
            verdict = evidence.classify(self.thresholds)
            trace_context.annotate(
                start=int(start),
                mu_bins=round(evidence.mu_bins, 4),
                peak_snr=round(evidence.peak_snr, 3),
                second_peak_ratio=round(evidence.second_peak_ratio, 4),
                fractional_spread_bins=round(evidence.fractional_spread_bins, 4),
                verdict=verdict,
            )
            if verdict != CLEAN:
                return None, _REASON_FOR_VERDICT[verdict]
            user = self.fast.decode(samples, evidence, n_data_symbols)
            if user.symbols.size < self.framer.n_symbols_for_payload(payload_len):
                return None, REASON_TRUNCATED
            frame = user.decode_payload(self.framer, payload_len)
            result = WindowDecode(
                users=(
                    UserFrame(
                        offset_bins=user.offset_bins,
                        payload=frame.payload,
                        crc_ok=frame.crc_ok,
                    ),
                ),
                crc_ok=frame.crc_ok,
                sync_retries=0,
                tier=TIER0,
            )
            if not frame.crc_ok:
                return result, REASON_CRC_FAIL
            instruments.counter("decode.tier0.ok").inc()
            return result, None

    def decode_window(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
        instruments: NullInstruments = NULL_INSTRUMENTS,
    ) -> WindowDecode:
        """Tier-0 decode, escalating to the full pipeline on any doubt."""
        tier0_result, reason = self._tier0(
            samples, n_data_symbols, payload_len, instruments
        )
        if reason is None:
            assert tier0_result is not None
            return tier0_result
        if self.full is None:
            # "fast" tier: no escalation target; report Tier 0's verdict
            # with the reason it *would* have escalated for.
            if tier0_result is not None:
                return replace(tier0_result, escalation_reason=reason)
            return WindowDecode(
                users=(),
                crc_ok=False,
                sync_retries=0,
                tier=TIER0,
                escalation_reason=reason,
            )
        instruments.counter("decode.escalated").inc()
        instruments.counter(f"decode.escalated.{reason}").inc()
        with trace_context.span("decode.escalate", reason=reason):
            full_result = self.full.decode_window(
                samples, n_data_symbols, payload_len, instruments
            )
        return replace(full_result, escalation_reason=reason)


def build_pipeline(
    tier: str,
    params: LoRaParams,
    rng: RngLike = None,
    synchronize: bool = True,
    coding_rate: int = 4,
    sync_search_symbols: int = 0,
    max_users: Optional[int] = None,
    thresholds: Optional[CascadeThresholds] = None,
) -> "ChoirPipeline | CascadePipeline":
    """The single sanctioned pipeline constructor (R012).

    Callers name a tier from :data:`DECODE_TIERS`; which decoder runs on
    which window is this module's decision alone.
    """
    if tier not in DECODE_TIERS:
        raise ValueError(f"decode tier must be one of {DECODE_TIERS}, got {tier!r}")
    if tier == "fast":
        return CascadePipeline(
            params, full=None, thresholds=thresholds, coding_rate=coding_rate
        )
    full = ChoirPipeline(
        params,
        rng=rng,
        synchronize=synchronize,
        coding_rate=coding_rate,
        sync_search_symbols=sync_search_symbols,
        max_users=max_users,
    )
    if tier == "full":
        return full
    return CascadePipeline(
        params, full=full, thresholds=thresholds, coding_rate=coding_rate
    )
