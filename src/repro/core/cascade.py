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
    retry loop around :class:`repro.core.ChoirDecoder` on every window
    (the reference path; bit-identical results).
``cascade``
    The default (:data:`DEFAULT_DECODE_TIER`).
    :class:`CascadePipeline` -- Tier-0
    (:class:`repro.core.fastpath.FastPathDecoder`) on windows the
    collision discriminator calls clean, escalation to the full
    pipeline on ``collided`` / ``ambiguous`` / ``no-preamble-peak``
    evidence, ``truncated`` windows, or a Tier-0 CRC failure.
``fast``
    Tier-0 only, never escalate -- the measurement configuration that
    isolates the fast path's own loss profile.

Counters, timers and trace spans go to the ambient observation context
(:mod:`repro.observe`), exactly like the detector's ``detect.align``
events do: the gateway worker installs its job-local sinks around the
decode, and standalone use with nothing installed records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import observe
from repro.core.decoder import ChoirDecoder, DecodedUser
from repro.core.detection import align_to_window_grid
from repro.core.fastpath import (
    AMBIGUOUS,
    CLEAN,
    COLLIDED,
    NO_PREAMBLE,
    FastPathDecoder,
)
from repro.phy.packet import LoRaFramer
from repro.phy.params import LoRaParams

#: Accepted decode-tier names (CLI ``--decode-tier`` and config fields).
DECODE_TIERS: Tuple[str, ...] = ("full", "cascade", "fast")

#: The tier every gateway, server and CLI default names.  ``full`` stays
#: selectable: it is the cascade's escalation target and the reference
#: path the parity suites compare against.
DEFAULT_DECODE_TIER = "cascade"

#: The window-cut contract: every packet window starts this many symbols
#: before the detector's (window-granular) start.  The detected start can
#: sit up to one symbol before the true boundary, so the boundary lies
#: within the first ``WINDOW_LEAD_SYMBOLS + 1`` symbols -- the bound
#: :class:`ChoirPipeline` puts on its grid search.
WINDOW_LEAD_SYMBOLS = 2

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


@dataclass(frozen=True)
class UserFrame:
    """One decoded user's payload attempt within a window."""

    offset_bins: float
    payload: bytes
    crc_ok: bool


def check_frames(
    framer: LoRaFramer, users: Sequence[DecodedUser], payload_len: int
) -> List[UserFrame]:
    """The one frame check of Tier 0 and every ladder rung: user -> :class:`UserFrame`.

    Users too short for the payload are skipped; each other user is one
    ``decode.crc_trials`` and passes on its CRC alone.  A CRC pass over an
    uncorrectable FEC codeword also counts ``decode.fec_contradicted``
    (not a rejection: genuine frames carry such codewords too, DESIGN.md).
    """
    needed = framer.n_symbols_for_payload(payload_len)
    results: List[UserFrame] = []
    for user in users:
        if user.symbols.size < needed:
            continue
        with observe.kernel("decode.frame", f"sf{framer.params.spreading_factor}"):
            frame = user.decode_payload(framer, payload_len)
        if frame.crc_ok and frame.uncorrectable_codewords:
            observe.counter("decode.fec_contradicted")
        results.append(
            UserFrame(offset_bins=user.offset_bins, payload=frame.payload, crc_ok=frame.crc_ok)
        )
    observe.counter("decode.crc_trials", len(results))
    return results


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

    def __init__(self, params: LoRaParams, max_users: Optional[int] = None) -> None:
        self.params = params
        self.decoder = ChoirDecoder(params)
        self.framer = LoRaFramer(params)
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
        return check_frames(self.framer, users, payload_len)

    def decode_window(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
    ) -> WindowDecode:
        """Align, then decode with the CRC-oracle alignment ladder.

        ``samples`` is a window cut per :data:`WINDOW_LEAD_SYMBOLS`, so
        the grid search only considers starts in its first
        ``WINDOW_LEAD_SYMBOLS + 1`` symbols.
        """
        n = self.params.samples_per_symbol
        with observe.stage("align", timer="decode.align_s"):
            base, align_score = align_to_window_grid(
                self.params,
                samples,
                candidate_range=(0, (WINDOW_LEAD_SYMBOLS + 1) * n),
            )
            observe.annotate(offset=base, score=float(align_score))
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
        results: List[UserFrame] = []
        retries = 0
        for attempt, offset in enumerate(offsets):
            with observe.span("attempt", index=attempt, offset=int(offset)):
                observe.counter("decode.attempts")
                attempt_results = self._decode_at(
                    samples, offset, n_data_symbols, payload_len
                )
                observe.add_event(
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
    ) -> None:
        self.params = params
        self.full = full
        self.fast = FastPathDecoder(params)
        self.framer = LoRaFramer(params)

    @property
    def tier(self) -> str:
        """The configured tier name: ``"cascade"`` or ``"fast"``."""
        return "cascade" if self.full is not None else "fast"

    def _tier0(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
    ) -> WindowDecode:
        """Run Tier 0: its decode, with the reason to escalate if it declined.

        A CRC-failing clean decode keeps its users (the ``fast`` tier
        reports them) beside the ``crc-fail`` reason the cascade
        escalates on.
        """
        with observe.span("decode.tier0"):
            observe.counter("decode.tier0.attempts")
            start = self.fast.estimate_packet_start(samples)
            evidence = self.fast.analyze_preamble(samples, start)
            verdict = evidence.classify()
            observe.annotate(
                start=int(start),
                mu_bins=round(evidence.mu_bins, 4),
                peak_snr=round(evidence.peak_snr, 3),
                second_peak_ratio=round(evidence.second_peak_ratio, 4),
                fractional_spread_bins=round(evidence.fractional_spread_bins, 4),
                verdict=verdict,
            )
            declined = WindowDecode(users=(), crc_ok=False, tier=TIER0)
            if verdict != CLEAN:
                return replace(declined, escalation_reason=_REASON_FOR_VERDICT[verdict])
            user = self.fast.decode(samples, evidence, n_data_symbols)
            users = check_frames(self.framer, [user], payload_len)
            if not users:
                return replace(declined, escalation_reason=REASON_TRUNCATED)
            result = WindowDecode(users=tuple(users), crc_ok=users[0].crc_ok, tier=TIER0)
            if not result.crc_ok:
                return replace(result, escalation_reason=REASON_CRC_FAIL)
            observe.counter("decode.tier0.ok")
            return result

    def decode_window(
        self,
        samples: np.ndarray,
        n_data_symbols: int,
        payload_len: int,
        tier0: Optional[WindowDecode] = None,
    ) -> WindowDecode:
        """Tier-0 decode, escalating to the full pipeline on any doubt.

        ``tier0`` is Tier 0's result on this window when it was already
        reached -- a ``fast``-tier decode of it, as the gateway's decode
        pool runs at dispatch -- and Tier 0 then does not run again.
        """
        if tier0 is None:
            tier0 = self._tier0(samples, n_data_symbols, payload_len)
        reason = tier0.escalation_reason
        if reason is None or self.full is None:
            # Clean, or the "fast" tier: no escalation target, so Tier 0's
            # result stands with the reason it *would* have escalated for.
            return tier0
        observe.counter("decode.escalated")
        observe.counter(f"decode.escalated.{reason}")
        with observe.span("decode.escalate", reason=reason):
            full_result = self.full.decode_window(
                samples, n_data_symbols, payload_len
            )
        return replace(full_result, escalation_reason=reason)


def build_pipeline(
    tier: str,
    params: LoRaParams,
    max_users: Optional[int] = None,
) -> "ChoirPipeline | CascadePipeline":
    """The single sanctioned pipeline constructor (R012).

    Callers name a tier from :data:`DECODE_TIERS`; which decoder runs on
    which window is this module's decision alone.
    """
    if tier not in DECODE_TIERS:
        raise ValueError(f"decode tier must be one of {DECODE_TIERS}, got {tier!r}")
    if tier == "fast":
        return CascadePipeline(params)
    full = ChoirPipeline(params, max_users=max_users)
    if tier == "full":
        return full
    return CascadePipeline(params, full=full)
