"""Profiler overhead gate for the streaming gateway.

The kernel-profiling hooks sit on the same hot paths as the tracing
hooks (``with observe.kernel(...)`` around every dechirp, channelizer
push, Gram solve, and SIC tier).  With nothing installed each hook is
one ContextVar read and must be cheap enough
that the standard gateway benchmark stays within 10% of the committed
``BENCH_gateway.json`` realtime factor -- the same band as the tracing
gate, because the 8-channel EU868 baseline's wall clock jitters roughly
+-10% run to run on a shared machine.

Profiler-on is gated *relatively*: against the profiler-off run from
the same session, where machine drift cancels, it must stay within 10%.
That is the subsystem's admission ticket -- a profiler you cannot leave
on for a capacity campaign would never get used.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

from benchmarks.perf import perf_gate

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_report", ROOT / "tools" / "bench_report.py"
)
assert _spec is not None and _spec.loader is not None
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)


def test_profiler_overhead_within_bands():
    baseline = json.loads((ROOT / "BENCH_gateway.json").read_text())
    base_rt = baseline["throughput"]["realtime_factor"]
    config = baseline["config"]

    # Profiler off (the default): the committed config, rerun fresh.
    # Best-of-3 filters scheduler noise -- the gate asks whether the
    # *hooks* got slower, not whether one run was unlucky.
    off_runs = [bench_report.run_benchmark(**config) for _ in range(3)]
    off = max(off_runs, key=lambda r: r["throughput"]["realtime_factor"])
    off_rt = off["throughput"]["realtime_factor"]

    # Profiler on: same config, same session, best-of-3.
    on_runs = [
        bench_report.run_benchmark(**config, profile=True) for _ in range(3)
    ]
    on = max(on_runs, key=lambda r: r["throughput"]["realtime_factor"])
    on_rt = on["throughput"]["realtime_factor"]

    print(
        f"\nrealtime factor: baseline {base_rt:.3f}x,"
        f" profiler-off {off_rt:.3f}x, profiler-on {on_rt:.3f}x"
        f" (off/baseline = {off_rt / base_rt:.4f},"
        f" on/off = {on_rt / off_rt:.4f})"
    )
    perf_gate(
        off_rt >= 0.90 * base_rt,
        f"profiler-off realtime factor {off_rt:.3f}x fell more than 10%"
        f" below the committed baseline {base_rt:.3f}x",
    )
    perf_gate(
        on_rt >= 0.90 * off_rt,
        f"profiler-on realtime factor {on_rt:.3f}x fell more than 10%"
        f" below the profiler-off run {off_rt:.3f}x from the same session",
    )
    # Correctness never goes through perf_gate: the profiler must not
    # change what gets decoded.
    assert off["counts"]["recovered"] == baseline["counts"]["recovered"]
    assert on["counts"]["recovered"] == baseline["counts"]["recovered"]
