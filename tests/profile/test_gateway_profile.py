"""Profiled gateway runs: coverage, executor parity, resource fields.

The coverage test is the PR's acceptance criterion: the per-kernel wall
sums rooted at ``decode.window`` must explain the telemetry-measured
decode time to within 20% -- if an instrumented kernel is dropped or a
frame leaks, the two totals diverge.
"""

import pytest

from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.scenario.campaign import run_variant
from repro.scenario.spec import (
    GeometrySpec,
    PlanSpec,
    ScenarioSpec,
    SweepSpec,
    TrafficSpec,
)
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node


def run_profiled(**overrides):
    nodes = overrides.pop(
        "nodes",
        [periodic_node(node_id=0), periodic_node(node_id=1, period_s=0.4)],
    )
    source = SyntheticTrafficSource(
        PARAMS, nodes, duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
    )
    config = GatewayConfig(
        params=PARAMS,
        payload_len=PAYLOAD_LEN,
        executor=overrides.pop("executor", "serial"),
        seed=0,
        profile=overrides.pop("profile", True),
        **overrides,
    )
    return Gateway(config).run(source)


def decode_window_wall_s(profile_state) -> float:
    """Self time summed over every path rooted at decode.window."""
    return sum(
        wall
        for path, wall in profile_state["paths"].items()
        if path == "decode.window" or path.startswith("decode.window;")
    )


class TestCoverage:
    def test_kernel_walls_explain_decode_time(self):
        report = run_profiled()
        assert report.packets_decoded > 0
        assert report.profile is not None
        covered = decode_window_wall_s(report.profile.state())
        measured = report.telemetry["decode.decode_s"]["total_s"]
        assert measured > 0.0
        assert abs(covered - measured) <= 0.20 * measured

    def test_profile_counts_every_decoded_window(self):
        report = run_profiled()
        sf = f"sf{PARAMS.spreading_factor}"
        stats = report.profile.stats()
        assert stats[("decode.window", sf)]["calls"] == report.packets_decoded
        # The kernel table lives in the profiler only.
        assert not any(
            name.startswith("profile.kernel.") for name in report.telemetry
        )

    def test_report_renders_profile_section(self):
        text = run_profiled().summary()
        assert "kernel profile" in text
        assert "decode.window" in text


class TestProfileOff:
    def test_default_run_carries_no_profile(self):
        report = run_profiled(profile=False)
        assert report.profile is None
        assert report.resources is None
        assert not any(
            name.startswith("profile.kernel.") for name in report.telemetry
        )


class TestExecutorParity:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_kernel_call_counts_identical_serial_vs_thread(self, executor):
        # Wall times are machine noise, but the (kernel, shape) table's
        # call counts and the job-telemetry counters are deterministic:
        # the same air must run the same kernels and take the same tier
        # decisions under every executor -- including across the pickle
        # boundary, where each job's observation bundle travels home.
        # Three staggered nodes make one window escalate; "block" keeps
        # every job.
        nodes = [periodic_node(node_id=i, period_s=0.2 + 0.05 * i) for i in range(3)]
        serial = run_profiled(executor="serial", drop_policy="block", nodes=nodes)
        other = run_profiled(
            executor=executor, n_workers=2, drop_policy="block", nodes=nodes
        )
        calls = lambda report: {  # noqa: E731
            key: stat["calls"] for key, stat in report.profile.stats().items()
        }
        counters = lambda report: {  # noqa: E731
            name: state["value"]
            for name, state in report.telemetry.items()
            if name.startswith("decode.") and state["type"] == "counter"
        }
        assert calls(serial) == calls(other)
        assert counters(serial) == counters(other)
        assert counters(serial)["decode.escalated"] >= 1
        assert counters(serial)["decode.tier0.ok"] >= 1
        assert other.packets_dropped == 0


class TestResources:
    def test_resource_summary_populated(self):
        report = run_profiled()
        assert report.resources is not None
        assert report.resources.wall_s > 0.0
        assert report.resources.cpu_s > 0.0
        assert report.resources.peak_rss_kb > 0
        assert report.resources.alloc_peak_kb == 0.0
        assert " peak-rss=" in report.summary()
        assert " worker-peak-rss=" in report.summary()

    def test_profile_alloc_opt_in(self):
        report = run_profiled(profile_alloc=3)
        assert report.resources.alloc_peak_kb > 0.0
        assert 0 < len(report.resources.top_allocations) <= 3


class TestCampaignResourceCurve:
    def test_variant_result_carries_resource_sample(self):
        spec = ScenarioSpec(
            name="profile-test",
            geometry=GeometrySpec(layout="fixed-snr", snr_db=15.0),
            traffic=TrafficSpec(
                period_s=3.0, payload_len=8, spreading_factors=(7,)
            ),
            plan=PlanSpec(n_channels=2),
            sweep=SweepSpec(node_counts=(4,), duration_s=1.0, seed=11),
        )
        result, _ = run_variant(spec, 4, "choir", duration_s=1.0, seed=11)
        assert result.cpu_s > 0.0
        assert result.max_rss_kb > 0
        as_dict = result.to_dict()
        assert as_dict["cpu_s"] == result.cpu_s
        assert as_dict["max_rss_kb"] == result.max_rss_kb
        assert as_dict["worker_max_rss_kb"] == result.worker_max_rss_kb
