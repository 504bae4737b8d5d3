"""The repo benchmark: four seeded workloads, end-to-end and per-layer metrics.

Each workload runs in fresh child processes (``child.py``), one per run:
``--reps`` untraced runs -- more while ``--seconds`` have not yet
elapsed -- then one traced run that gives the per-layer numbers and the
tracing overhead.  Run ``k`` gets the inputs keyed by ``(seed, k)``; the
traced run repeats run 0's inputs and must reproduce its output digest.
Every metric is printed with its unit (median and quartiles over the
runs; latencies and deliveries pooled over the runs), the same data is
written as JSON, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
nonzero when any correctness check fails.

    python3 bench/run.py [--seed S] [--reps R] [--out results.json]
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

With ``--trace 0`` no traced run is made and the last line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
The last line's metric names come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import BLAS_ENV, DECODER_SEED, DEPLOYMENT_SEED, ROOT, WORKLOADS, resolve_params

BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

#: LoRaWAN class-A RX1 window: a downlink (an ADR command) can only ride
#: on an uplink decoded within this long after the uplink ends.
RX1_DEADLINE_S = 1.0
#: Unit of each end-to-end metric ``measure`` computes.
UNITS = {
    "realtime_x": "x",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "rx1_on_time_ratio": "fraction",
    "delivery_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Fields of each run kept in the JSON results.
PER_RUN = ("wall_s", "realtime_x", "setup_s", "gen_s", "peak_rss_mb", "attempted", "delivered")
#: A child that runs longer is killed and counts as a failure.
CHILD_TIMEOUT_S = 170.0
#: No further untraced run starts once the next would end past this.
RUN_BUDGET_S = 120.0


class BenchError(RuntimeError):
    """A child process failed or the checkout cannot be benchmarked."""


def load_manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: which metrics the last line carries."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def spawn(
    workload: str,
    seed: int,
    run: int,
    params: Dict[str, Any],
    trace: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``child.py`` once and return its result object."""
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--run", str(run),
        "--params", json.dumps(params),
        "--trace", str(int(trace)),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f}s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload}: child exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4) of ``values``."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(
    name: str,
    seed: int,
    params: Dict[str, Any],
    reps: int,
    seconds: float,
    traced: bool,
    out_dir: Path,
) -> Dict[str, Any]:
    """All runs of one workload, summarized, with its correctness verdict.

    The traced run's Chrome trace is written to ``out_dir``.
    """
    runs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(runs) < reps or time.perf_counter() - started < seconds:
        elapsed = time.perf_counter() - started
        if runs and elapsed + elapsed / len(runs) > RUN_BUDGET_S:
            break
        runs.append(spawn(name, seed, len(runs), params))
    trace_run = None
    trace_file = None
    if traced:
        trace_file = out_dir / f"{name}-seed{seed}.trace.json"
        trace_run = spawn(name, seed, 0, params, trace=True, trace_out=trace_file)

    measured = runs + ([trace_run] if trace_run else [])
    failures = [
        f"run {i}: check {check} failed"
        for i, run in enumerate(measured)
        for check, ok in run["checks"].items()
        if not ok
    ]
    if (
        trace_run is not None
        and WORKLOADS[name].deterministic
        and trace_run["digest"] != runs[0]["digest"]
    ):
        failures.append("output digest differs between two runs on the same inputs")
    if not all(run["latencies_s"] for run in runs):
        raise BenchError(f"{name}: a run delivered nothing, so latency is undefined")

    latencies = [lat for run in runs for lat in run["latencies_s"]]
    metrics = {
        "realtime_x": summarize([run["realtime_x"] for run in runs]),
        "latency_p50_s": {
            "value": percentile(latencies, 50),
            **_quartiles([percentile(run["latencies_s"], 50) for run in runs]),
            "n": len(latencies),
        },
        "latency_p90_s": {
            "value": percentile(latencies, 90),
            **_quartiles([percentile(run["latencies_s"], 90) for run in runs]),
            "n": len(latencies),
        },
        "rx1_on_time_ratio": {
            "value": sum(lat <= RX1_DEADLINE_S for lat in latencies) / len(latencies),
            **_quartiles([
                sum(lat <= RX1_DEADLINE_S for lat in run["latencies_s"]) / len(run["latencies_s"])
                for run in runs
            ]),
        },
        "delivery_ratio": {
            "value": sum(run["delivered"] for run in runs) / sum(run["attempted"] for run in runs),
            **_quartiles([run["delivered"] / run["attempted"] for run in runs]),
        },
        "setup_s": summarize([run["setup_s"] for run in measured]),
        # The smallest run's peak: what every run needs.  A rare decode
        # window allocates 40-160 MB more, in some runs only, so the
        # median and the max flip with which payloads a seed draws.
        "peak_rss_mb": {
            "value": min(run["peak_rss_mb"] for run in runs),
            **_quartiles([run["peak_rss_mb"] for run in runs]),
        },
    }
    for metric, stat in metrics.items():
        stat["unit"] = UNITS[metric]
    layers: Dict[str, Any] = {}
    if trace_run is not None:
        layers = {key: {"value": value, "unit": unit} for key, (value, unit) in trace_run["layers"].items()}
        # Against run 0, which had the same inputs.
        layers["trace_overhead"] = {
            "value": 1.0 - trace_run["realtime_x"] / runs[0]["realtime_x"],
            "unit": "fraction",
        }
    return {
        "workload": name,
        "params": params,
        "runs": len(runs),
        "metrics": metrics,
        "layers": layers,
        "trace_file": str(trace_file) if trace_file else None,
        "traced_wall_s": trace_run["wall_s"] if trace_run else None,
        "counts": runs[0]["counts"],
        "per_run": [
            {key: run[key] for key in PER_RUN}
            for run in measured
        ],
        "gen_s": statistics.median(run["gen_s"] for run in runs),
        "attempted": sum(run["attempted"] for run in measured),
        "failed": sum(run["failed"] for run in measured),
        "failures": failures,
        "versions": runs[0]["versions"],
    }


def _quartiles(values: List[float]) -> Dict[str, float]:
    spread = summarize(values)
    return {"q1": spread["q1"], "q3": spread["q3"]}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def provenance(seed: int, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Where and how the numbers were taken."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    versions = results[0]["versions"] if results else {}
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas_env": BLAS_ENV,
        "deployment_seed": DEPLOYMENT_SEED,
        "decoder_seed": DECODER_SEED,
        "workloads": {r["workload"]: r["params"] for r in results},
    }


def print_result(result: Dict[str, Any]) -> None:
    """The human-readable tables for one workload."""
    print(
        f"== {result['workload']}: {result['runs']} runs"
        f"{' + 1 traced' if result['layers'] else ''}, inputs generated in"
        f" {result['gen_s']:.2f}s per run"
    )
    print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}  {'unit':<9}n")
    for name, stat in result["metrics"].items():
        print(
            f"  {name:<16}{stat['value']:>12.6g}{stat['q1']:>12.6g}{stat['q3']:>12.6g}"
            f"  {stat['unit']:<9}{stat.get('n', result['runs'])}"
        )
    print("  counts: " + " ".join(f"{k}={v}" for k, v in result["counts"].items()))
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if not result["layers"]:
        return
    print(f"  traced run: wall {result['traced_wall_s']:.3f}s, spans in {result['trace_file']}")
    by_layer: Dict[str, List[str]] = {}
    for name, stat in result["layers"].items():
        layer, _, metric = name.rpartition(".")
        if name.endswith("_share"):
            continue
        value = stat["value"]
        text = f"{value:.4g}" if isinstance(value, float) else str(value)
        by_layer.setdefault(layer or "run", []).append(f"{metric}={text}")
    for layer, cells in by_layer.items():
        print(f"  {layer:<13}" + "  ".join(cells))


def final_line(
    results: List[Dict[str, Any]], manifest: Dict[str, Any], trace: Optional[int]
) -> Dict[str, Any]:
    """The last stdout line: correctness, attempts, and the selected metrics."""
    wanted = []
    if trace != 1:
        wanted += [("metrics", m) for m in manifest["end_to_end"]]
    if trace != 0:
        wanted += [("layers", m) for m in manifest["per_layer"]]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for source, metric in wanted:
            stat = result[source][metric["name"]]
            metrics[prefix + metric["name"]] = {"value": stat["value"], "unit": stat["unit"]}
    return {
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None, params: Optional[Dict[str, Dict[str, Any]]] = None) -> int:
    """Run the benchmark; ``params`` overrides workload parameters by name."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced runs per workload, at least (default 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding untraced runs until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: no traced run; 1: report per-layer metrics (default: both)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        manifest = load_manifest()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            workload_params = resolve_params(name, (params or {}).get(name))
            result = measure(
                name, args.seed, workload_params, args.reps, args.seconds, args.trace != 0,
                args.out.parent,
            )
            print_result(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(
        json.dumps({"provenance": provenance(args.seed, results), "results": results}, indent=1)
    )
    summary = final_line(results, manifest, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
