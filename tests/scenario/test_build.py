"""Scenario -> live objects: geometry, population, byte-identical runs."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.link import LinkBudget
from repro.channel.pathloss import UrbanPathLoss
from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource, workers
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    build_gateway,
    build_gateway_config,
    build_nodes,
    build_source,
    load_scenario,
    node_snrs,
    offered_load_erlangs,
    report_digest,
    source_seed,
)
from repro.scenario.spec import GeometrySpec, PlanSpec, SweepSpec, TrafficSpec


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="build-test",
        geometry=GeometrySpec(layout="fixed-snr", snr_db=15.0),
        traffic=TrafficSpec(period_s=4.0, payload_len=8, spreading_factors=(7,)),
        plan=PlanSpec(n_channels=4),
        sweep=SweepSpec(node_counts=(8,), duration_s=2.0, seed=3),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGeometry:
    def test_fixed_snr_is_constant(self):
        snrs = node_snrs(small_spec(), 16, seed=0)
        assert np.allclose(snrs, 15.0)

    def test_uniform_disc_matches_link_budget_bounds(self):
        geo = GeometrySpec(layout="uniform-disc", cell_radius_m=130.0,
                           min_distance_m=35.0)
        spec = small_spec(geometry=geo)
        snrs = node_snrs(spec, 500, seed=1)
        budget = LinkBudget(tx_power_dbm=geo.tx_power_dbm,
                            penetration_loss_db=geo.penetration_loss_db)
        pathloss = UrbanPathLoss(exponent=geo.path_exponent)
        best = budget.snr_db(float(pathloss.loss_db(geo.min_distance_m)))
        worst = budget.snr_db(float(pathloss.loss_db(geo.cell_radius_m)))
        assert np.all(snrs <= best + 1e-9)
        assert np.all(snrs >= worst - 1e-9)
        # area-uniform placement puts most nodes in the outer annulus
        assert float(np.median(snrs)) < (best + worst) / 2

    def test_geometry_deterministic_per_seed_and_count(self):
        spec = small_spec(geometry=GeometrySpec())
        a = node_snrs(spec, 64, seed=5)
        b = node_snrs(spec, 64, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, node_snrs(spec, 64, seed=6))

    def test_shadowing_adds_spread(self):
        base = small_spec(geometry=GeometrySpec(shadowing_sigma_db=0.0))
        shadowed = small_spec(geometry=GeometrySpec(shadowing_sigma_db=6.0))
        assert float(np.std(node_snrs(shadowed, 200, seed=2))) > float(
            np.std(node_snrs(base, 200, seed=2))
        )


class TestPopulation:
    def test_round_robin_channels_cover_the_plan(self):
        nodes = build_nodes(small_spec(), 8, seed=0)
        assert [cfg.channel for cfg in nodes] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert all(cfg.spreading_factor == 7 for cfg in nodes)
        assert all(cfg.period_s == 4.0 for cfg in nodes)

    def test_uniform_channel_policy_stays_in_plan(self):
        spec = small_spec(
            traffic=TrafficSpec(period_s=4.0, channel_policy="uniform")
        )
        nodes = build_nodes(spec, 100, seed=0)
        channels = {cfg.channel for cfg in nodes}
        assert channels <= set(range(4))
        assert len(channels) > 1

    def test_multi_sf_dealt_round_robin(self):
        spec = small_spec(
            traffic=TrafficSpec(period_s=4.0, spreading_factors=(7, 8))
        )
        nodes = build_nodes(spec, 4, seed=0)
        assert [cfg.spreading_factor for cfg in nodes] == [7, 8, 7, 8]

    def test_zero_nodes_rejected(self):
        with pytest.raises(ScenarioError):
            build_nodes(small_spec(), 0, seed=0)


class TestGatewayVariants:
    def test_choir_variant_uses_gateway_section(self):
        config = build_gateway_config(small_spec(), "choir")
        assert config.decode_tier == "cascade"
        assert config.max_users == 4
        assert config.plan.n_channels == 4

    def test_baseline_variant_overlays_decoder_only(self):
        spec = small_spec()
        choir = build_gateway_config(spec, "choir")
        base = build_gateway_config(spec, "baseline")
        assert base.decode_tier == "fast"
        assert base.max_users == 1
        # everything that is not the decoder is shared
        assert base.plan == choir.plan
        assert base.n_workers == choir.n_workers
        assert base.queue_capacity == choir.queue_capacity
        assert base.detection_pfa == choir.detection_pfa
        assert base.seed == choir.seed

    def test_unknown_variant_rejected(self):
        with pytest.raises(ScenarioError):
            build_gateway_config(small_spec(), "turbo")


class TestOfferedLoad:
    def test_periodic_load_scales_linearly_with_nodes(self):
        spec = small_spec()
        g1 = offered_load_erlangs(spec, 100)
        g2 = offered_load_erlangs(spec, 200)
        assert g2 == pytest.approx(2 * g1)

    def test_saturated_load_is_per_channel_airtime_bound(self):
        spec = small_spec(traffic=TrafficSpec(period_s=None))
        # each saturated node offers ~1 Erlang, split over 4 channels
        assert offered_load_erlangs(spec, 4) == pytest.approx(1.0)


class TestByteIdenticalReports:
    def test_scenario_run_equals_hand_constructed_run(self):
        """The loader adds nothing: a hand-built config must reproduce the
        scenario-built gateway report byte for byte (digest JSON)."""
        spec = small_spec()
        n_nodes = 8

        scenario_report = build_gateway(spec, "choir").run(
            build_source(spec, n_nodes)
        )

        # Hand-constructed equivalents of what the builders do, from the
        # documented construction rules alone.
        plan = ChannelPlan.eu868_style(4)
        nodes = [
            NodeConfig(
                node_id=i,
                snr_db=15.0,
                payload_bits=64,
                period_s=4.0,
                channel=i % 4,
                spreading_factor=7,
            )
            for i in range(n_nodes)
        ]
        source = SyntheticTrafficSource(
            params=plan.channel_params(7),
            nodes=nodes,
            duration_s=2.0,
            payload_len=8,
            chunk_samples=4096,
            plan=plan,
            rng=source_seed(spec, n_nodes, 3),
            max_active_nodes=1024,
        )
        hand_config = GatewayConfig(
            plan=plan,
            sf_set=(7,),
            payload_len=8,
            n_workers=2,
            executor="process",
            queue_capacity=64,
            drop_policy="block",
            detection_pfa=1e-3,
            max_users=4,
            decode_tier="cascade",
            seed=3,
        )
        hand_report = Gateway(hand_config).run(source)

        scenario_bytes = json.dumps(
            report_digest(scenario_report), sort_keys=True
        ).encode()
        hand_bytes = json.dumps(
            report_digest(hand_report), sort_keys=True
        ).encode()
        assert scenario_bytes == hand_bytes
        # sanity: the runs actually decoded traffic
        assert scenario_report.packets_decoded > 0


class TestProcessExecutorScenario:
    def test_wrapped_decode_entry_point_still_reaches_workers(self, monkeypatch):
        """A process pool ships its worker entry point by name, so the
        urban scenario decodes the same while ``decode_packet_window`` is
        replaced by a local closure (as a timing tracer does)."""
        spec = load_scenario("scenarios/eu868_urban.yaml")
        assert spec.gateway.executor == "process"

        def run(executor: str):
            config = replace(build_gateway_config(spec, "choir"), executor=executor)
            return Gateway(config).run(build_source(spec, 400, duration_s=1.0))

        serial = run("serial")
        original = workers.decode_packet_window
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(workers, "decode_packet_window", wrapper)
        process = run("process")
        assert process.telemetry["decode.escalated"]["value"] >= 1
        assert process.decode_errors == 0
        assert json.dumps(report_digest(process), sort_keys=True) == json.dumps(
            report_digest(serial), sort_keys=True
        )
        # Escalations ran in worker processes, so the wrapper counted none
        # of them here.
        assert calls == []
