"""Thresholded metric comparison: the engine behind ``repro diff``.

Generalizes the ad-hoc comparator that used to live in
``tools/bench_report.py``: two flat ``{metric-name: value}`` series are
compared with a relative tolerance plus an absolute slack, and every
metric gets a verdict -- ``ok`` / ``faster`` / ``slower`` /
``new-key`` / ``missing-key``.  The comparison is *direction aware*:
seconds, bytes, drops and losses regress upward, delivery rates and
realtime factors regress downward, and metrics with no obvious
direction (raw event counts) are reported but never gated.

``tools/bench_report.py --compare`` calls back into this module with a
forced lower-is-better direction and :func:`format_compare_line`, which
reproduces its historical output byte for byte; ``repro diff`` uses the
richer :class:`DiffReport` rendering over two run manifests, and reports
whether their report digests match (:func:`digest_line`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Name suffixes that mark a metric as lower-is-better.
LOWER_SUFFIXES = ("_s", "_ms", "_kb", "_bytes", ".bytes")

#: Name fragments that mark a metric as lower-is-better.
LOWER_TOKENS = (
    "dropped",
    "errors",
    "failures",
    "loss",
    "evicted",
    "wait",
    "escalated",
    "queue_depth",
    "occupancy",
)

#: Name fragments that mark a metric as higher-is-better.
HIGHER_TOKENS = (
    "delivery_rate",
    "realtime_factor",
    "recovered",
    "delivered",
    "decoded",
    "crc_ok",
)


def metric_direction(name: str) -> str:
    """Classify ``name`` as ``"lower"``, ``"higher"`` or ``"info"``.

    Higher-is-better tokens win over the generic lower-is-better
    suffixes so e.g. ``...delivery_rate`` is not misread; anything
    unrecognized is informational (reported, never gated).
    """
    lowered = name.lower()
    if any(token in lowered for token in HIGHER_TOKENS):
        return "higher"
    if any(lowered.endswith(suffix) for suffix in LOWER_SUFFIXES):
        return "lower"
    if any(token in lowered for token in LOWER_TOKENS):
        return "lower"
    return "info"


@dataclass(frozen=True)
class MetricDelta:
    """One metric's comparison outcome."""

    name: str
    baseline: Optional[float]
    candidate: Optional[float]
    direction: str
    verdict: str
    limit: Optional[float] = None

    @property
    def regression(self) -> bool:
        """Whether this delta alone should fail a gate."""
        return self.verdict == "slower"

    @property
    def ratio(self) -> Optional[float]:
        """candidate / baseline, when both exist and baseline != 0."""
        if self.baseline and self.candidate is not None:
            return self.candidate / self.baseline
        return None


@dataclass(frozen=True)
class DiffReport:
    """Every metric's verdict for one baseline/candidate comparison."""

    deltas: Tuple[MetricDelta, ...]
    tolerance: float
    slack: float

    @property
    def regressions(self) -> List[MetricDelta]:
        """Deltas whose verdict is ``slower``."""
        return [d for d in self.deltas if d.verdict == "slower"]

    @property
    def missing(self) -> List[MetricDelta]:
        """Baseline metrics absent from the candidate."""
        return [d for d in self.deltas if d.verdict == "missing-key"]

    @property
    def new(self) -> List[MetricDelta]:
        """Candidate metrics absent from the baseline."""
        return [d for d in self.deltas if d.verdict == "new-key"]

    @property
    def improvements(self) -> List[MetricDelta]:
        """Deltas whose verdict is ``faster``."""
        return [d for d in self.deltas if d.verdict == "faster"]

    def exit_code(self, strict: bool = False) -> int:
        """0 = clean; 1 = regressions (strict: or baseline keys missing)."""
        if self.regressions:
            return 1
        if strict and self.missing:
            return 1
        return 0

    def lines(self, show_ok: bool = False) -> List[str]:
        """Human-readable verdict lines (``ok`` rows only on request)."""
        out: List[str] = []
        for delta in self.deltas:
            if delta.verdict == "ok" and not show_ok:
                continue
            out.append(format_delta_line(delta))
        return out

    def summary(self) -> str:
        """One-line tally of the comparison."""
        return (
            f"{len(self.deltas)} metrics compared: "
            f"{len(self.regressions)} slower, "
            f"{len(self.improvements)} faster, "
            f"{len(self.missing)} missing, {len(self.new)} new "
            f"(tolerance {self.tolerance:.0%}, slack {self.slack:g})"
        )


def diff_metrics(
    baseline: Mapping[str, float],
    candidate: Mapping[str, float],
    tolerance: float = 0.25,
    slack: float = 0.0,
    direction: Optional[Callable[[str], str]] = None,
) -> DiffReport:
    """Compare two flat metric series with thresholded verdicts.

    A lower-is-better metric is ``slower`` when it exceeds
    ``baseline * (1 + tolerance) + slack`` and ``faster`` below
    ``baseline * (1 - tolerance) - slack``; higher-is-better metrics
    mirror the bounds.  ``direction`` overrides the per-name
    classification (``tools/bench_report.py`` forces ``"lower"`` for
    every gated latency).  Baseline keys come first in sorted order,
    then candidate-only keys, so rendering order is deterministic.
    """
    classify = direction if direction is not None else metric_direction
    deltas: List[MetricDelta] = []
    for name in sorted(baseline):
        base_value = float(baseline[name])
        kind = classify(name)
        cand_raw = candidate.get(name)
        if cand_raw is None:
            deltas.append(
                MetricDelta(
                    name=name,
                    baseline=base_value,
                    candidate=None,
                    direction=kind,
                    verdict="missing-key",
                )
            )
            continue
        cand_value = float(cand_raw)
        upper = base_value * (1.0 + tolerance) + slack
        lower = base_value * (1.0 - tolerance) - slack
        if kind == "lower":
            limit: Optional[float] = upper
            if cand_value > upper:
                verdict = "slower"
            elif cand_value < lower:
                verdict = "faster"
            else:
                verdict = "ok"
        elif kind == "higher":
            limit = lower
            if cand_value < lower:
                verdict = "slower"
            elif cand_value > upper:
                verdict = "faster"
            else:
                verdict = "ok"
        else:
            limit = None
            verdict = "ok"
        deltas.append(
            MetricDelta(
                name=name,
                baseline=base_value,
                candidate=cand_value,
                direction=kind,
                verdict=verdict,
                limit=limit,
            )
        )
    for name in sorted(set(candidate) - set(baseline)):
        deltas.append(
            MetricDelta(
                name=name,
                baseline=None,
                candidate=float(candidate[name]),
                direction=classify(name),
                verdict="new-key",
            )
        )
    return DiffReport(
        deltas=tuple(deltas), tolerance=tolerance, slack=slack
    )


def format_compare_line(delta: MetricDelta) -> str:
    """The historical ``bench_report --compare`` line for one delta.

    Byte-compatible with the pre-``repro.profile`` comparator: values
    render in milliseconds (cosmetic for non-second metrics), missing
    keys render as hard failures, and anything within the limit -- even
    a large improvement -- prints ``ok``.
    """
    if delta.candidate is None:
        return f"  FAIL {delta.name}: missing from candidate"
    assert delta.baseline is not None and delta.limit is not None
    verdict = "FAIL" if delta.regression else "ok  "
    return (
        f"  {verdict} {delta.name}: {delta.candidate * 1e3:.2f}ms"
        f" (baseline {delta.baseline * 1e3:.2f}ms,"
        f" limit {delta.limit * 1e3:.2f}ms)"
    )


def format_delta_line(delta: MetricDelta) -> str:
    """The ``repro diff`` rendering of one delta (unit-agnostic)."""
    if delta.verdict == "missing-key":
        return f"  missing  {delta.name}: baseline {delta.baseline:.6g}"
    if delta.verdict == "new-key":
        return f"  new      {delta.name}: candidate {delta.candidate:.6g}"
    assert delta.baseline is not None and delta.candidate is not None
    tag = {"slower": "SLOWER ", "faster": "faster ", "ok": "ok     "}[
        delta.verdict
    ]
    ratio = delta.ratio
    ratio_part = f" ({ratio:.2f}x)" if ratio is not None else ""
    limit_part = (
        f", limit {delta.limit:.6g}" if delta.limit is not None else ""
    )
    return (
        f"  {tag}  {delta.name}: {delta.candidate:.6g}"
        f" (baseline {delta.baseline:.6g}{limit_part}){ratio_part}"
    )


def metric_table(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Defensive float-casting copy of a metric mapping."""
    return {str(name): float(value) for name, value in metrics.items()}


def digest_line(
    baseline: Mapping[str, Any], candidate: Mapping[str, Any]
) -> str:
    """``digest: identical``, or the top-level digest keys that differ.

    A digest is the deterministic projection of a run's decode results
    (:func:`repro.scenario.build.report_digest`); two runs of the same
    config that decode the same packets have identical digests whatever
    their timings, so this is the equivalence check for code deletions.
    """
    differing = sorted(
        key
        for key in set(baseline) | set(candidate)
        if baseline.get(key) != candidate.get(key)
    )
    if not differing:
        return "digest: identical"
    return "digest: differs in " + ", ".join(differing)
