"""Gateway throughput benchmark: run the streaming runtime, write BENCH_gateway.json.

Runs the full ingest -> detect -> dispatch -> decode pipeline over
deterministic synthetic traffic and records the numbers a deployer sizes
hardware with: packets/s and samples/s of sustained throughput, the
realtime factor, and per-stage latency percentiles straight from the
telemetry layer.

Also hosts the regression gate shared with ``tools/bench_decode.py``,
``tools/bench_cascade.py`` and ``tools/bench_capacity.py``:
``--compare baseline.json`` re-runs the benchmark named inside the
baseline (or reads ``--candidate``) and fails if any gated metric
exceeds the baseline by more than ``--tolerance`` (default 25%).

Usage::

    PYTHONPATH=src python tools/bench_report.py                  # defaults
    PYTHONPATH=src python tools/bench_report.py --duration 10 \
        --workers 4 --out BENCH_gateway.json
    PYTHONPATH=src python tools/bench_report.py \
        --compare BENCH_decode.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cascade import DEFAULT_DECODE_TIER  # noqa: E402
from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource  # noqa: E402
from repro.gateway.workers import EXECUTORS  # noqa: E402

#: Telemetry histograms exported per stage.
STAGE_METRICS = (
    "ingest.chunk_s",
    "channelize.push_s",
    "detect.scan_s",
    "decode.queue_wait_s",
    "decode.decode_s",
)


def run_benchmark(
    duration_s: float = 5.0,
    n_nodes: int = 2,
    period_s: float = 0.5,
    snr_db: float = 15.0,
    payload_len: int = 4,
    n_workers: int = 2,
    executor: str = "thread",
    seed: int = 0,
    spreading_factor: int = 7,
    n_channels: int = 1,
    sf_set: tuple[int, ...] | list[int] | None = None,
    decode_tier: str = DEFAULT_DECODE_TIER,
    telemetry_out: str | None = None,
    metrics_out: str | None = None,
    trace_out: str | None = None,
    profile: bool = False,
    profile_out: str | None = None,
    stacks_out: str | None = None,
) -> dict:
    """Run one gateway benchmark and return the JSON-ready result dict.

    ``n_channels > 1`` (or a multi-SF ``sf_set``) puts an EU868-style
    channel plan in front of the gateway and feeds it wideband synthetic
    traffic instead of one channel's baseband.  ``decode_tier`` is
    recorded in ``config``, so a ``--compare`` rerun measures the tier
    its baseline did (a baseline without the key reruns at today's
    default).  ``trace_out`` turns on tracing and ``profile`` (or
    either profile path) the kernel profiler; every ``*_out`` path goes
    to :meth:`repro.gateway.Gateway.write_artifacts`, whose manifest has
    kind ``bench-gateway``.  The output paths are deliberately not part
    of the recorded ``config``, so ``--compare`` reruns stay untraced
    and unprofiled (both cost a little and baselines must stay
    comparable).
    """
    sfs = tuple(sf_set) if sf_set else (spreading_factor,)
    source = SyntheticTrafficSource.round_robin(
        sfs,
        n_nodes,
        duration_s,
        n_channels=n_channels,
        snr_db=snr_db,
        period_s=period_s,
        payload_len=payload_len,
        rng=seed,
    )
    gateway = Gateway(
        GatewayConfig(
            params=source.params,
            plan=source.plan,
            sf_set=sfs,
            payload_len=payload_len,
            n_workers=n_workers,
            executor=executor,
            seed=seed,
            decode_tier=decode_tier,
            trace=bool(trace_out),
            profile=bool(profile or profile_out or stacks_out),
        )
    )
    report = gateway.run(source)
    sent = sorted(p.payload for p in source.transmitted)
    got = sorted(report.decoded_payloads)
    recovered = sum(1 for p in got if p in sent)
    stages = {}
    for metric in STAGE_METRICS:
        state = report.telemetry.get(metric)
        if state is None:
            continue
        stages[metric] = {
            key: state[key]
            for key in ("count", "p50_s", "p95_s", "p99_s", "mean_s", "max_s")
            if key in state
        }
    result = {
        "benchmark": "gateway",
        "config": {
            "duration_s": duration_s,
            "n_nodes": n_nodes,
            "period_s": period_s,
            "snr_db": snr_db,
            "payload_len": payload_len,
            "n_workers": n_workers,
            "executor": executor,
            "seed": seed,
            "spreading_factor": spreading_factor,
            "n_channels": n_channels,
            "sf_set": list(sfs),
            "decode_tier": gateway.config.decode_tier,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "throughput": {
            "packets_per_s": report.packets_per_s,
            "samples_per_s": report.samples_per_s,
            "realtime_factor": report.realtime_factor,
            "wall_s": report.wall_s,
            "stream_s": report.stream_s,
        },
        "counts": {
            "transmitted": len(sent),
            "detected": report.packets_detected,
            "decoded": report.packets_decoded,
            "recovered": recovered,
            "dropped": report.packets_dropped,
            "crc_failures": report.crc_failures,
        },
        "stages": stages,
    }
    if report.shards is not None:
        result["shards"] = report.shards
    gateway.write_artifacts(
        report,
        "bench-gateway",
        result["config"],
        telemetry_out=telemetry_out,
        metrics_out=metrics_out,
        trace_out=trace_out,
        profile_out=profile_out,
        stacks_out=stacks_out,
    )
    return result


#: Percentiles gated by ``--compare`` (means/maxima are too noisy to gate).
COMPARE_KEYS = ("p50_s", "p95_s")


def latency_metrics(report: dict) -> dict[str, float]:
    """Flatten a benchmark report into comparable ``{label: seconds}`` pairs."""
    metrics: dict[str, float] = {}
    if report.get("benchmark") == "decode":
        for case in report.get("cases", ()):
            label = f"sf{case['spreading_factor']}.k{case['n_users']}"
            for key in COMPARE_KEYS:
                metrics[f"{label}.{key}"] = float(case["latency_s"][key])
    elif report.get("benchmark") == "cascade":
        for tier, entry in report.get("tiers", {}).items():
            for key in COMPARE_KEYS:
                metrics[f"{tier}.{key}"] = float(entry["latency_s"][key])
            for sub in ("tier0", "full"):
                hist = entry.get(f"{sub}_latency_s")
                if hist is not None:
                    for key in COMPARE_KEYS:
                        metrics[f"{tier}.{sub}.{key}"] = float(hist[key])
    elif report.get("benchmark") == "capacity":
        # Both metrics are lower-is-better by construction (loss rather
        # than delivery, wall-per-stream rather than realtime factor), so
        # the increase-only comparator gates capacity and throughput
        # regressions alike.  loss_rate is a fraction, not seconds; the
        # comparator's ms formatting is cosmetic.
        for point in report.get("points", ()):
            label = f"n{point['n_nodes']}"
            metrics[f"{label}.loss_rate"] = float(point["choir_loss_rate"])
            metrics[f"{label}.wall_per_stream_s"] = float(
                point["wall_per_stream_s"]
            )
    else:
        for stage, hist in report.get("stages", {}).items():
            for key in COMPARE_KEYS:
                if key in hist:
                    metrics[f"{stage}.{key}"] = float(hist[key])
    return metrics


def rerun_from(baseline: dict) -> dict:
    """Re-run the benchmark a baseline report was produced by, same config."""
    config = dict(baseline.get("config", {}))
    if baseline.get("benchmark") == "decode":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_decode

        # The committed baseline also records a since-removed decode-path
        # switch whose recorded value selected today's only path; rerun
        # with the arguments the benchmark still takes.
        accepted = inspect.signature(bench_decode.run_benchmark).parameters
        return bench_decode.run_benchmark(
            **{key: value for key, value in config.items() if key in accepted}
        )
    if baseline.get("benchmark") == "cascade":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_cascade

        return bench_cascade.run_benchmark(**config)
    if baseline.get("benchmark") == "capacity":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import bench_capacity

        return bench_capacity.run_benchmark(**config)
    return run_benchmark(**config)


def compare_reports(
    baseline: dict,
    candidate: dict,
    tolerance: float = 0.25,
    slack_s: float = 0.002,
) -> list[str]:
    """Return the metrics where ``candidate`` regressed past the tolerance.

    Only slowdowns fail: a candidate faster than baseline is reported but
    never treated as a regression.  ``slack_s`` is an absolute grace on top
    of the relative limit so sub-10ms metrics, dominated by fixed overhead
    and scheduler jitter, do not flap the gate.

    A thin shell over :func:`repro.profile.diff.diff_metrics` with a
    forced lower-is-better direction (every gated metric is a latency or
    a loss); the line format is the historical one, byte for byte.
    """
    from repro.profile.diff import diff_metrics, format_compare_line

    report = diff_metrics(
        latency_metrics(baseline),
        latency_metrics(candidate),
        tolerance=tolerance,
        slack=slack_s,
        direction=lambda name: "lower",
    )
    regressions = []
    for delta in report.deltas:
        if delta.verdict == "new-key":  # historical output ignored these
            continue
        print(format_compare_line(delta))
        if delta.verdict in ("slower", "missing-key"):
            regressions.append(delta.name)
    return regressions


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--period", type=float, default=0.5)
    parser.add_argument("--snr", type=float, default=15.0)
    parser.add_argument("--payload-len", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--executor", choices=EXECUTORS, default="thread")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sf", type=int, default=7)
    parser.add_argument(
        "--channels",
        type=int,
        default=1,
        help=">1 benchmarks the gateway behind an EU868-style channel plan",
    )
    parser.add_argument(
        "--sf-set",
        default=None,
        help="comma list of SFs scanned per channel (e.g. 7,8); implies a plan",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        help="also dump the run's telemetry registry as JSON-lines here",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="also write Prometheus text exposition here",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="enable provenance tracing and write the trace here"
        " (.jsonl or .json)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        help="enable the kernel profiler and write a diffable run manifest"
        " here (compare runs with `python -m repro diff`)",
    )
    parser.add_argument(
        "--stacks-out",
        default=None,
        help="enable the kernel profiler and write collapsed stacks here",
    )
    parser.add_argument("--out", default="BENCH_gateway.json")
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="regression mode: check a fresh run (or --candidate) against"
        " this baseline JSON instead of writing a report",
    )
    parser.add_argument(
        "--candidate",
        metavar="CANDIDATE",
        help="with --compare: compare this report instead of re-running",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="with --compare: allowed fractional latency slowdown (0.25 = 25%%)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.002,
        help="with --compare: absolute grace in seconds on top of the"
        " relative limit (jitter floor for sub-10ms metrics)",
    )
    args = parser.parse_args(argv)
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        if args.candidate:
            candidate = json.loads(Path(args.candidate).read_text())
        else:
            print(f"re-running '{baseline.get('benchmark')}' benchmark ...")
            candidate = rerun_from(baseline)
        print(f"comparing against {args.compare} (tolerance {args.tolerance:.0%}):")
        regressions = compare_reports(
            baseline, candidate, args.tolerance, slack_s=args.slack
        )
        if regressions:
            print(f"REGRESSION: {len(regressions)} metric(s) over tolerance")
            return 1
        print("no regressions")
        return 0
    sf_set = (
        tuple(int(part) for part in args.sf_set.split(",") if part.strip())
        if args.sf_set
        else None
    )
    result = run_benchmark(
        duration_s=args.duration,
        n_nodes=args.nodes,
        period_s=args.period,
        snr_db=args.snr,
        payload_len=args.payload_len,
        n_workers=args.workers,
        executor=args.executor,
        seed=args.seed,
        spreading_factor=args.sf,
        n_channels=args.channels,
        sf_set=sf_set,
        telemetry_out=args.telemetry_out,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        profile_out=args.profile_out,
        stacks_out=args.stacks_out,
    )
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    thr = result["throughput"]
    counts = result["counts"]
    print(
        f"gateway bench: {counts['decoded']}/{counts['transmitted']} decoded,"
        f" {thr['packets_per_s']:.2f} packets/s,"
        f" {thr['samples_per_s'] / 1e3:.0f} ksamples/s,"
        f" {thr['realtime_factor']:.2f}x realtime"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
