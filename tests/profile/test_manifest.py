"""Run manifests: flattening, write/load round-trip, format guards."""

import json

import pytest

from repro.gateway.telemetry import Telemetry
from repro.profile import KernelProfiler, build_manifest, load_manifest
from repro.profile.manifest import (
    MANIFEST_FORMAT,
    profiler_metrics,
    resource_metrics,
    telemetry_metrics,
)
from repro.profile.resources import ResourceAccountant


def sample_telemetry() -> Telemetry:
    telemetry = Telemetry()
    telemetry.counter("gateway.packets_decoded").inc(5)
    telemetry.gauge("ring.occupancy").set(3)
    telemetry.histogram("decode.decode_s").record(0.01)
    telemetry.histogram("decode.decode_s").record(0.03)
    return telemetry


def sample_profiler() -> KernelProfiler:
    profiler = KernelProfiler()
    with profiler.kernel("decode.window", "sf7", fft_count=2, fft_points=256):
        pass
    return profiler


class TestFlattening:
    def test_telemetry_metrics_explode_by_kind(self):
        metrics = telemetry_metrics(sample_telemetry().snapshot())
        assert metrics["gateway.packets_decoded"] == 5.0
        assert metrics["ring.occupancy"] == 3.0
        assert metrics["ring.occupancy.peak"] == 3.0
        assert metrics["decode.decode_s.count"] == 2.0
        assert abs(metrics["decode.decode_s.total_s"] - 0.04) < 1e-9
        assert "decode.decode_s.p95_s" in metrics

    def test_profiler_metrics_use_dotted_shape(self):
        metrics = profiler_metrics(sample_profiler().state())
        assert "profile.kernel.decode.window.sf7.wall_s" in metrics
        assert metrics["profile.kernel.decode.window.sf7.calls"] == 1.0
        assert metrics["profile.kernel.decode.window.sf7.ffts"] == 2.0

    def test_resource_metrics(self):
        with ResourceAccountant() as accountant:
            pass
        metrics = resource_metrics(accountant.summary.to_dict())
        assert set(metrics) == {
            "resources.wall_s", "resources.cpu_s",
            "resources.peak_rss_kb", "resources.alloc_peak_kb",
        }


class TestBuildManifest:
    def test_accepts_live_objects(self):
        with ResourceAccountant() as accountant:
            pass
        manifest = build_manifest(
            "gateway",
            {"channels": 8},
            seed=42,
            telemetry=sample_telemetry(),
            profiler=sample_profiler(),
            resources=accountant.summary,
            extra_metrics={"gateway.realtime_factor": 0.5},
        )
        assert manifest.kind == "gateway"
        assert manifest.seed == 42
        assert manifest.config == {"channels": 8}
        assert manifest.metrics["gateway.realtime_factor"] == 0.5
        assert manifest.metrics["resources.wall_s"] >= 0.0
        assert "profile.kernel.decode.window.sf7.wall_s" in manifest.metrics
        assert manifest.kernels["format"] == "repro-profile/v1"

    def test_accepts_prebuilt_mappings(self):
        # The executor/campaign path hands over already-taken snapshots.
        manifest = build_manifest(
            "campaign",
            {},
            telemetry=sample_telemetry().snapshot(),
            profiler=sample_profiler().state(),
        )
        assert manifest.telemetry is not None
        assert "decode.window|sf7" in manifest.kernels["kernels"]

    def test_kernel_rows_not_double_counted(self):
        # The profiler is the one home of the kernel table: the metric
        # table carries one set of profile.kernel.* rows, built from it,
        # and the telemetry section carries none.
        profiler = sample_profiler()
        manifest = build_manifest(
            "gateway", {}, telemetry=sample_telemetry(), profiler=profiler
        )
        kernel_rows = {
            name: value for name, value in manifest.metrics.items()
            if name.startswith("profile.kernel.")
        }
        assert kernel_rows == profiler_metrics(profiler.state())
        assert sorted(kernel_rows) == [
            "profile.kernel.decode.window.sf7.calls",
            "profile.kernel.decode.window.sf7.ffts",
            "profile.kernel.decode.window.sf7.wall_s",
        ]
        assert not any(
            name.startswith("profile.kernel.") for name in manifest.telemetry
        )


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = build_manifest(
            "gateway", {"duration": 1.0}, seed=7,
            telemetry=sample_telemetry(), profiler=sample_profiler(),
        )
        manifest.write(path)
        loaded = load_manifest(path)
        assert loaded.format == MANIFEST_FORMAT
        assert loaded.kind == "gateway"
        assert loaded.seed == 7
        assert loaded.metrics == manifest.metrics
        assert loaded.config == {"duration": 1.0}

    def test_manifest_json_is_sorted_and_tagged(self, tmp_path):
        path = tmp_path / "manifest.json"
        build_manifest("server", {}).write(path)
        data = json.loads(path.read_text())
        assert data["format"] == MANIFEST_FORMAT
        assert list(data) == sorted(data)
        assert data["version"]  # package version always stamped
        assert "python" in data["platform"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_manifest.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a repro run manifest"):
            load_manifest(path)
