"""tools/bench_report.py: the recorded config, reruns and run artifacts."""

import importlib.util
from pathlib import Path

from repro.core.cascade import DEFAULT_DECODE_TIER
from repro.profile import load_manifest

SCRIPT = Path(__file__).resolve().parent.parent.parent / "tools" / "bench_report.py"


def _load_bench_report():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rerun_measures_the_recorded_tier():
    bench_report = _load_bench_report()
    baseline = bench_report.run_benchmark(duration_s=0.3, decode_tier="full")
    assert baseline["config"]["decode_tier"] == "full"
    assert bench_report.rerun_from(baseline)["config"]["decode_tier"] == "full"
    # A baseline from before the key existed reruns at today's default.
    del baseline["config"]["decode_tier"]
    rerun = bench_report.rerun_from(baseline)
    assert rerun["config"]["decode_tier"] == DEFAULT_DECODE_TIER


def test_profile_artifacts_written_through_the_shared_writer(tmp_path):
    bench_report = _load_bench_report()
    manifest_path = tmp_path / "manifest.json"
    stacks_path = tmp_path / "stacks.txt"
    # At the default 0.5 s period a 0.3 s run carries no packet; 0.1 s
    # puts decode windows into the kernel table.
    result = bench_report.run_benchmark(
        duration_s=0.3,
        period_s=0.1,
        profile_out=str(manifest_path),
        stacks_out=str(stacks_path),
    )
    manifest = load_manifest(manifest_path)
    assert manifest.kind == "bench-gateway"
    assert manifest.config == result["config"]
    assert manifest.digest is not None
    assert any(
        name.startswith("profile.kernel.decode.window.") for name in manifest.metrics
    )
    lines = stacks_path.read_text().splitlines()
    assert lines
    for line in lines:
        path, micros = line.rsplit(" ", 1)
        assert path and int(micros) >= 1
