"""Campaign runner: scoring, curve serialization, the ordering gate."""

import json

import pytest

from repro.gateway.telemetry import Telemetry
from repro.profile import KernelProfiler
from repro.scenario import (
    CapacityCurve,
    ScenarioSpec,
    SweepPoint,
    VariantResult,
    delivered_count,
    run_campaign,
    run_point,
)
from repro.scenario.campaign import run_variant
from repro.scenario.spec import GeometrySpec, PlanSpec, SweepSpec, TrafficSpec


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="campaign-test",
        geometry=GeometrySpec(layout="fixed-snr", snr_db=15.0),
        traffic=TrafficSpec(period_s=3.0, payload_len=8, spreading_factors=(7,)),
        plan=PlanSpec(n_channels=2),
        sweep=SweepSpec(node_counts=(4, 8), duration_s=1.5, seed=11),
    )


def variant(name: str, offered: int, delivered: int) -> VariantResult:
    return VariantResult(
        variant=name,
        packets_offered=offered,
        packets_decoded=delivered,
        packets_delivered=delivered,
        crc_failures=0,
        wall_s=1.0,
        stream_s=1.0,
    )


def point(n: int, choir_rate: float, base_rate: float) -> SweepPoint:
    offered = 100
    return SweepPoint(
        n_nodes=n,
        duration_s=10.0,
        offered_load_erlangs=0.1,
        choir=variant("choir", offered, int(round(choir_rate * offered))),
        baseline=variant("baseline", offered, int(round(base_rate * offered))),
        source_active_peak=4,
    )


class TestDeliveredCount:
    def test_exact_match(self):
        assert delivered_count(["aa", "bb"], ["bb", "aa"]) == 2

    def test_duplicate_decodes_do_not_inflate(self):
        assert delivered_count(["aa"], ["aa", "aa", "aa"]) == 1

    def test_duplicate_transmissions_each_need_a_decode(self):
        assert delivered_count(["aa", "aa"], ["aa"]) == 1
        assert delivered_count(["aa", "aa"], ["aa", "aa"]) == 2

    def test_misdecodes_do_not_count(self):
        assert delivered_count(["aa"], ["ff"]) == 0


class TestOrderingGate:
    def test_clean_curve_has_no_violations(self):
        curve = CapacityCurve(
            scenario=tiny_spec(),
            points=(point(50, 1.0, 1.0), point(800, 0.8, 0.6)),
        )
        assert curve.ordering_violations(strict_above=200) == []

    def test_choir_below_baseline_flagged_anywhere(self):
        curve = CapacityCurve(
            scenario=tiny_spec(), points=(point(50, 0.9, 1.0),)
        )
        problems = curve.ordering_violations(strict_above=200)
        assert len(problems) == 1
        assert "n=50" in problems[0]

    def test_tie_allowed_below_threshold_not_above(self):
        curve = CapacityCurve(
            scenario=tiny_spec(),
            points=(point(50, 1.0, 1.0), point(400, 0.7, 0.7)),
        )
        problems = curve.ordering_violations(strict_above=200)
        assert len(problems) == 1
        assert "n=400" in problems[0]
        assert "strictly" in problems[0]


class TestCurveSerialization:
    def test_json_round_trips_through_loads(self):
        curve = CapacityCurve(
            scenario=tiny_spec(), points=(point(10, 1.0, 0.9),)
        )
        data = json.loads(curve.to_json())
        assert data["scenario"]["name"] == "campaign-test"
        assert data["points"][0]["choir"]["delivery_rate"] == 1.0
        assert data["points"][0]["capacity_gain"] == pytest.approx(1.0 / 0.9)

    def test_csv_has_header_and_one_row_per_point(self):
        curve = CapacityCurve(
            scenario=tiny_spec(),
            points=(point(10, 1.0, 0.9), point(20, 0.9, 0.8)),
        )
        lines = curve.to_csv().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n_nodes,")
        assert lines[1].startswith("10,")
        assert lines[2].startswith("20,")

    def test_chart_renders_every_point(self):
        curve = CapacityCurve(
            scenario=tiny_spec(), points=(point(10, 1.0, 0.5),)
        )
        chart = curve.chart()
        assert "campaign-test" in chart
        assert "10" in chart


class TestEndToEnd:
    def test_small_sweep_runs_and_scores(self):
        spec = tiny_spec()
        curve = run_campaign(spec)
        assert [p.n_nodes for p in curve.points] == [4, 8]
        for p in curve.points:
            assert p.choir.packets_offered == p.baseline.packets_offered > 0
            assert 0.0 <= p.choir.delivery_rate <= 1.0
            assert 0.0 <= p.baseline.delivery_rate <= 1.0
            assert p.source_active_peak >= 1
            assert p.offered_load_erlangs > 0

    def test_point_overrides_and_progress_hook(self):
        spec = tiny_spec()
        seen = []
        curve = run_campaign(
            spec,
            node_counts=[3],
            duration_s=1.0,
            seed=99,
            on_point=seen.append,
        )
        assert len(curve.points) == 1
        assert curve.points[0].n_nodes == 3
        assert curve.points[0].duration_s == 1.0
        assert seen == [curve.points[0]]

    def test_variants_see_identical_offered_air(self):
        spec = tiny_spec()
        p = run_point(spec, 6, duration_s=1.5)
        assert p.choir.packets_offered == p.baseline.packets_offered


class TestProfilerAccumulator:
    def test_shared_profiler_sums_per_run_tables(self, monkeypatch):
        # The campaign's profiler only accumulates: each variant profiles
        # into its own table, merged in after the run.  Two runs into one
        # shared profiler must equal the sum of two runs into fresh ones,
        # and no run's telemetry may carry a copy of the kernel table.
        import repro.scenario.campaign as campaign

        spec = tiny_spec()
        registries = []

        def recording_telemetry():
            registries.append(Telemetry())
            return registries[-1]

        monkeypatch.setattr(campaign, "Telemetry", recording_telemetry)

        def calls(profiler):
            return {key: stat["calls"] for key, stat in profiler.stats().items()}

        shared = KernelProfiler()
        run_variant(spec, 4, "choir", duration_s=1.0, profiler=shared)
        run_variant(spec, 4, "baseline", duration_s=1.0, profiler=shared)
        fresh = [KernelProfiler(), KernelProfiler()]
        run_variant(spec, 4, "choir", duration_s=1.0, profiler=fresh[0])
        run_variant(spec, 4, "baseline", duration_s=1.0, profiler=fresh[1])

        summed = calls(fresh[0])
        for key, count in calls(fresh[1]).items():
            summed[key] = summed.get(key, 0) + count
        assert calls(shared) == summed
        assert summed[("decode.window", "sf7")] > 0
        assert len(registries) == 4
        for telemetry in registries:
            assert telemetry.snapshot()
            assert not any(
                name.startswith("profile.kernel.") for name in telemetry.snapshot()
            )
