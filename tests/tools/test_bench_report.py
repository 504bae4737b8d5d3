"""tools/bench_report.py records the decode tier and reruns at it."""

import importlib.util
from pathlib import Path

from repro.core.cascade import DEFAULT_DECODE_TIER

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
