"""Profiler overhead gate for the streaming gateway.

The kernel-profiling hooks sit on the same hot paths as the tracing
hooks (``with observe.kernel(...)`` around every dechirp, channelizer
push, Gram solve, and SIC tier).  With nothing installed each hook is
one ContextVar read and must be cheap enough
that the standard gateway benchmark stays within 10% of the committed
``BENCH_gateway.json`` realtime factor -- the same band as the tracing
gate, because the 8-channel EU868 baseline's wall clock jitters roughly
+-10% run to run on a shared machine.

Profiler-on is gated *relatively*: off and on runs alternate, and the
median of the paired on/off realtime ratios must stay within 10%.  Each
pair runs back to back, so machine drift between pairs cancels.  That is the subsystem's admission ticket -- a profiler you cannot leave
on for a capacity campaign would never get used.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import statistics

from benchmarks.perf import perf_gate

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_report", ROOT / "tools" / "bench_report.py"
)
assert _spec is not None and _spec.loader is not None
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)


#: Alternating profiler-off/on run pairs.
PAIRS = 5


def test_profiler_overhead_within_bands():
    baseline = json.loads((ROOT / "BENCH_gateway.json").read_text())
    base_rt = baseline["throughput"]["realtime_factor"]
    config = baseline["config"]

    # The committed config, rerun fresh: profiler off (the default), then
    # on, PAIRS times over.
    pairs = [
        (
            bench_report.run_benchmark(**config),
            bench_report.run_benchmark(**config, profile=True),
        )
        for _ in range(PAIRS)
    ]
    off_rts = [off["throughput"]["realtime_factor"] for off, _ in pairs]
    ratios = [
        on["throughput"]["realtime_factor"] / off["throughput"]["realtime_factor"]
        for off, on in pairs
    ]
    # Best off run against the baseline: the gate asks whether the
    # *hooks* got slower, not whether one run was unlucky.
    off_rt = max(off_rts)
    on_off = statistics.median(ratios)

    print(
        f"\nrealtime factor: baseline {base_rt:.3f}x,"
        f" profiler-off {', '.join(f'{rt:.3f}' for rt in off_rts)}x"
        f" (best/baseline = {off_rt / base_rt:.4f}),"
        f" on/off per pair {', '.join(f'{r:.4f}' for r in ratios)}"
        f" (median {on_off:.4f})"
    )
    perf_gate(
        off_rt >= 0.90 * base_rt,
        f"profiler-off realtime factor {off_rt:.3f}x fell more than 10%"
        f" below the committed baseline {base_rt:.3f}x",
    )
    perf_gate(
        on_off >= 0.90,
        f"median profiler-on/off realtime ratio {on_off:.4f} over {PAIRS}"
        f" alternating pairs fell more than 10% below 1",
    )
    # Correctness never goes through perf_gate: the profiler must not
    # change what gets decoded.
    for off, on in pairs:
        assert off["counts"]["recovered"] == baseline["counts"]["recovered"]
        assert on["counts"]["recovered"] == baseline["counts"]["recovered"]
