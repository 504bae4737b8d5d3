"""The capacity campaign: sweep node counts, compare Choir vs standard LoRa.

Each sweep point synthesizes one population's air (the *same* IQ stream,
seed-for-seed, for both variants), runs it through two gateways --
the scenario's Choir configuration and the ``max_users=1`` standard-LoRa
baseline -- and scores delivery against the source's ground truth.  The
axis is offered load: as the population grows past the point where frames
start overlapping, a single-user decoder's delivery rate collapses along
the ALOHA curve while the collision-resolving cascade holds on, which is
the paper's Sec. 8 capacity claim in miniature.

Delivery is scored as a *multiset* intersection of decoded payload bytes
against transmitted payload bytes: a decode only counts while transmitted
copies of that exact payload remain unmatched, so duplicated decodes
can't inflate the rate past what was actually offered.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from collections import Counter

from repro.gateway.runtime import Gateway
from repro.gateway.telemetry import Telemetry
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import ResourceAccountant
from repro.scenario.build import (
    build_gateway_config,
    build_source,
    offered_load_erlangs,
)
from repro.scenario.spec import ScenarioSpec

#: Sweep points at or above this node count must show Choir *strictly*
#: above the baseline; below it collisions can be too rare to separate
#: the decoders and ties are allowed.
DEFAULT_STRICT_ABOVE = 200


@dataclass(frozen=True)
class VariantResult:
    """One decoder variant's outcome at one sweep point.

    ``cpu_s`` and ``max_rss_kb`` are the point's resource curve sample:
    process CPU spent on the variant's run (reaped decode-worker
    processes included) and the process peak RSS as
    of its end (monotone across a campaign -- the *growth* between
    points is what a leak would show).  ``worker_max_rss_kb`` is the
    largest reaped decode worker's peak RSS as of the same end (also
    monotone; 0 until a process pool has run).
    """

    variant: str
    packets_offered: int
    packets_decoded: int
    packets_delivered: int
    crc_failures: int
    wall_s: float
    stream_s: float
    cpu_s: float = 0.0
    max_rss_kb: int = 0
    worker_max_rss_kb: int = 0

    @property
    def delivery_rate(self) -> float:
        """Fraction of offered packets recovered (the capacity metric)."""
        if self.packets_offered == 0:
            return 0.0
        return self.packets_delivered / self.packets_offered

    @property
    def realtime_factor(self) -> float:
        """Stream seconds processed per wall second."""
        return self.stream_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form of this record."""
        return {
            "variant": self.variant,
            "packets_offered": self.packets_offered,
            "packets_decoded": self.packets_decoded,
            "packets_delivered": self.packets_delivered,
            "crc_failures": self.crc_failures,
            "delivery_rate": self.delivery_rate,
            "wall_s": self.wall_s,
            "stream_s": self.stream_s,
            "realtime_factor": self.realtime_factor,
            "cpu_s": self.cpu_s,
            "max_rss_kb": self.max_rss_kb,
            "worker_max_rss_kb": self.worker_max_rss_kb,
        }


@dataclass(frozen=True)
class SweepPoint:
    """One node count's full comparison."""

    n_nodes: int
    duration_s: float
    offered_load_erlangs: float
    choir: VariantResult
    baseline: VariantResult
    source_active_peak: int

    @property
    def capacity_gain(self) -> float:
        """Choir delivery over baseline delivery (>1 means Choir wins)."""
        if self.baseline.delivery_rate == 0.0:
            return float("inf") if self.choir.delivery_rate > 0 else 1.0
        return self.choir.delivery_rate / self.baseline.delivery_rate

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form of this record."""
        return {
            "n_nodes": self.n_nodes,
            "duration_s": self.duration_s,
            "offered_load_erlangs": self.offered_load_erlangs,
            "source_active_peak": self.source_active_peak,
            "capacity_gain": self.capacity_gain,
            "choir": self.choir.to_dict(),
            "baseline": self.baseline.to_dict(),
        }


def delivered_count(transmitted_payloads: List[str], decoded_payloads: List[str]) -> int:
    """Multiset intersection size of hex payload lists (inflation-proof)."""
    offered = Counter(transmitted_payloads)
    decoded = Counter(decoded_payloads)
    return sum((offered & decoded).values())


def run_variant(
    spec: ScenarioSpec,
    n_nodes: int,
    variant: str,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    profiler: Optional[KernelProfiler] = None,
) -> Tuple[VariantResult, int]:
    """Run one decoder variant over one freshly synthesized sweep point.

    Both variants rebuild the source from the same derived seed, so they
    consume bit-identical air; returns the result and the source's peak
    resident frame count (the streaming-memory evidence).  With a
    ``profiler`` the variant runs with ``profile=True`` and its own kernel
    table is merged into ``profiler`` afterwards, so one accumulator
    (shared across points) sums the campaign's table while each run's
    telemetry stays its own; resource accounting (CPU, peak RSS) is
    always on -- it costs two clock reads per variant.
    """
    telemetry = Telemetry()
    source = build_source(
        spec, n_nodes, seed=seed, duration_s=duration_s, telemetry=telemetry
    )
    config = build_gateway_config(spec, variant)
    if profiler is not None:
        config = replace(config, profile=True)
    gateway = Gateway(config, telemetry=telemetry)
    with ResourceAccountant() as accountant:
        report = gateway.run(source)
    if profiler is not None and report.profile is not None:
        profiler.merge(report.profile)
    resources = accountant.summary
    transmitted = [p.payload.hex() for p in source.transmitted]
    decoded = [p.hex() for p in report.decoded_payloads]
    result = VariantResult(
        variant=variant,
        packets_offered=source.packets_scheduled,
        packets_decoded=report.packets_decoded,
        packets_delivered=delivered_count(transmitted, decoded),
        crc_failures=report.crc_failures,
        wall_s=report.wall_s,
        stream_s=report.stream_s,
        cpu_s=resources.cpu_s,
        max_rss_kb=int(resources.peak_rss_kb),
        worker_max_rss_kb=int(resources.worker_peak_rss_kb),
    )
    return result, source.active_peak


def run_point(
    spec: ScenarioSpec,
    n_nodes: int,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    profiler: Optional[KernelProfiler] = None,
) -> SweepPoint:
    """One sweep point: same air, two decoders, one comparison."""
    choir, peak_choir = run_variant(
        spec, n_nodes, "choir", duration_s=duration_s, seed=seed,
        profiler=profiler,
    )
    baseline, peak_baseline = run_variant(
        spec, n_nodes, "baseline", duration_s=duration_s, seed=seed,
        profiler=profiler,
    )
    effective_duration = spec.sweep.duration_s if duration_s is None else duration_s
    return SweepPoint(
        n_nodes=n_nodes,
        duration_s=effective_duration,
        offered_load_erlangs=offered_load_erlangs(spec, n_nodes),
        choir=choir,
        baseline=baseline,
        source_active_peak=max(peak_choir, peak_baseline),
    )


@dataclass(frozen=True)
class CapacityCurve:
    """A full campaign: the scenario and its sweep points, in axis order."""

    scenario: ScenarioSpec
    points: Tuple[SweepPoint, ...]

    def ordering_violations(
        self, strict_above: int = DEFAULT_STRICT_ABOVE
    ) -> List[str]:
        """Where the Choir-vs-standard capacity ordering fails.

        Choir's delivery rate must be >= the baseline's at *every* point,
        and strictly above it once the population reaches ``strict_above``
        nodes (below that, collisions can be too rare to separate the
        decoders).  Empty list = the curve has the paper's shape.
        """
        problems: List[str] = []
        for point in self.points:
            c = point.choir.delivery_rate
            b = point.baseline.delivery_rate
            if c < b:
                problems.append(
                    f"n={point.n_nodes}: choir delivery {c:.3f} below "
                    f"baseline {b:.3f}"
                )
            elif point.n_nodes >= strict_above and c <= b:
                problems.append(
                    f"n={point.n_nodes}: choir delivery {c:.3f} not strictly "
                    f"above baseline {b:.3f} (required for n >= {strict_above})"
                )
        return problems

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form of this record."""
        return {
            "scenario": self.scenario.to_dict(),
            "points": [point.to_dict() for point in self.points],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize the curve (scenario + points) as pretty JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """Plot-ready CSV: one row per sweep point, both variants inline."""
        buf = io.StringIO()
        buf.write(
            "n_nodes,offered_load_erlangs,duration_s,"
            "choir_delivery_rate,baseline_delivery_rate,capacity_gain,"
            "choir_packets_offered,choir_packets_delivered,"
            "baseline_packets_delivered,"
            "choir_realtime_factor,baseline_realtime_factor,"
            "source_active_peak\n"
        )
        for p in self.points:
            buf.write(
                f"{p.n_nodes},{p.offered_load_erlangs:.6f},{p.duration_s},"
                f"{p.choir.delivery_rate:.6f},{p.baseline.delivery_rate:.6f},"
                f"{p.capacity_gain:.6f},"
                f"{p.choir.packets_offered},{p.choir.packets_delivered},"
                f"{p.baseline.packets_delivered},"
                f"{p.choir.realtime_factor:.4f},"
                f"{p.baseline.realtime_factor:.4f},"
                f"{p.source_active_peak}\n"
            )
        return buf.getvalue()

    def chart(self, width: int = 50) -> str:
        """ASCII capacity curve: delivery rate vs node count, both variants."""
        lines = [
            f"capacity curve: {self.scenario.name}",
            f"  {'nodes':>7}  {'load G':>7}  {'choir':>6}  {'std':>6}  "
            f"{'gain':>6}  delivery (C=choir, s=standard)",
        ]
        for p in self.points:
            c_col = int(round(p.choir.delivery_rate * width))
            b_col = int(round(p.baseline.delivery_rate * width))
            bar = [" "] * (width + 1)
            bar[min(b_col, width)] = "s"
            bar[min(c_col, width)] = "C" if c_col != b_col else "*"
            gain = (
                f"{p.capacity_gain:6.2f}"
                if p.capacity_gain != float("inf")
                else "   inf"
            )
            lines.append(
                f"  {p.n_nodes:>7}  {p.offered_load_erlangs:>7.3f}  "
                f"{p.choir.delivery_rate:>6.3f}  "
                f"{p.baseline.delivery_rate:>6.3f}  {gain}  |{''.join(bar)}|"
            )
        return "\n".join(lines)


def run_campaign(
    spec: ScenarioSpec,
    node_counts: Optional[List[int]] = None,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    on_point: Optional[Callable[[SweepPoint], None]] = None,
    profiler: Optional[KernelProfiler] = None,
) -> CapacityCurve:
    """Run the full sweep and return the capacity curve.

    ``node_counts``/``duration_s``/``seed`` override the scenario's sweep
    section (the CI job shrinks the committed scenario this way instead of
    maintaining a second file).  ``on_point`` observes each completed
    point -- progress reporting for multi-minute sweeps.  ``profiler``
    (optional) is an accumulator: every variant of every point profiles
    into its own table, which :func:`run_variant` merges into it, giving
    the campaign's run manifest one kernel table for the whole sweep.
    """
    counts = list(node_counts) if node_counts is not None else list(
        spec.sweep.node_counts
    )
    points: List[SweepPoint] = []
    for n_nodes in counts:
        point = run_point(
            spec, n_nodes, duration_s=duration_s, seed=seed, profiler=profiler
        )
        points.append(point)
        if on_point is not None:
            on_point(point)
    return CapacityCurve(scenario=spec, points=tuple(points))
