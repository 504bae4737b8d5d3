"""Decode-latency benchmark: time ChoirDecoder vs user count and SF.

Renders deterministic synthetic collisions (random offsets/delays per
user, fixed seed) and times the full per-packet decode -- preamble SIC,
delay estimation, data demodulation -- on the engine path, recording the
latency percentiles a deployer sizes workers with.  Writes
``BENCH_decode.json``; ``tools/bench_report.py --compare`` gates CI
against the committed baseline.

Usage::

    PYTHONPATH=src python tools/bench_decode.py                  # defaults
    PYTHONPATH=src python tools/bench_decode.py --reps 10 \
        --sfs 7,8 --users 1,2,3,4 --out BENCH_decode.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.channel import CollisionChannel  # noqa: E402
from repro.core.decoder import ChoirDecoder  # noqa: E402
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel  # noqa: E402
from repro.phy.params import LoRaParams  # noqa: E402
from repro.utils import ensure_rng  # noqa: E402


def _render_collision(
    params: LoRaParams,
    n_users: int,
    n_symbols: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One synthetic collision capture with ``n_users`` random transmitters."""
    channel = CollisionChannel(params, noise_power=1.0)
    transmissions = []
    for node_id in range(n_users):
        cfo_bins = rng.uniform(2.0, params.chips_per_symbol - 4.0)
        delay_samples = rng.uniform(0.0, 8.0)
        amplitude = float(10.0 ** (rng.uniform(10.0, 20.0) / 20.0))
        radio = LoRaRadio(
            params,
            oscillator=OscillatorModel(params.bins_to_hz(cfo_bins)),
            timing=TimingModel(delay_samples / params.sample_rate),
            node_id=node_id,
            rng=rng,
        )
        symbols = rng.integers(0, params.chips_per_symbol, n_symbols)
        transmissions.append((radio, symbols, amplitude + 0j))
    packet = channel.receive(transmissions, rng=rng)
    return packet.samples


def latency_summary(latencies_s: list[float]) -> dict:
    """Percentile summary of per-packet decode latencies.

    The ``latency_s`` block of ``BENCH_decode.json`` and
    ``BENCH_cascade.json`` (``tools/bench_cascade.py`` imports it).
    """
    arr = np.asarray(latencies_s)
    return {
        "p50_s": float(np.percentile(arr, 50)),
        "p95_s": float(np.percentile(arr, 95)),
        "p99_s": float(np.percentile(arr, 99)),
        "mean_s": float(np.mean(arr)),
        "max_s": float(np.max(arr)),
    }


def run_benchmark(
    spreading_factors: tuple[int, ...] = (7, 8),
    user_counts: tuple[int, ...] = (1, 2, 3, 4),
    reps: int = 8,
    n_symbols: int = 12,
    seed: int = 0,
    inner: int = 3,
) -> dict:
    """Time per-packet decode across (SF, user count) and return the report.

    Each packet is decoded ``inner`` times and the minimum kept: decode is
    deterministic per capture, so the min strips scheduler noise while the
    percentiles across packets still reflect genuine workload variance.
    """
    cases = []
    for sf in spreading_factors:
        params = LoRaParams(spreading_factor=sf)
        for n_users in user_counts:
            rng = ensure_rng(seed)
            decoder = ChoirDecoder(params)
            latencies = []
            users_found = []
            for rep in range(reps + 1):
                samples = _render_collision(params, n_users, n_symbols, rng)
                elapsed = np.inf
                for _ in range(inner):
                    started = time.perf_counter()
                    decoded = decoder.decode(samples, n_symbols)
                    elapsed = min(elapsed, time.perf_counter() - started)
                if rep == 0:
                    continue  # warm-up: tone-column/phasor caches fill here
                latencies.append(elapsed)
                users_found.append(len(decoded))
            cases.append(
                {
                    "spreading_factor": sf,
                    "n_users": n_users,
                    "reps": reps,
                    "latency_s": latency_summary(latencies),
                    "mean_users_found": float(np.mean(users_found)),
                }
            )
    return {
        "benchmark": "decode",
        "config": {
            "spreading_factors": list(spreading_factors),
            "user_counts": list(user_counts),
            "reps": reps,
            "n_symbols": n_symbols,
            "seed": seed,
            "inner": inner,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": cases,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sfs", default="7,8", help="comma-separated SFs")
    parser.add_argument(
        "--users", default="1,2,3,4", help="comma-separated user counts"
    )
    parser.add_argument("--reps", type=int, default=8)
    parser.add_argument("--symbols", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_decode.json")
    args = parser.parse_args(argv)
    result = run_benchmark(
        spreading_factors=tuple(int(s) for s in args.sfs.split(",")),
        user_counts=tuple(int(u) for u in args.users.split(",")),
        reps=args.reps,
        n_symbols=args.symbols,
        seed=args.seed,
    )
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for case in result["cases"]:
        latency = case["latency_s"]
        print(
            f"SF{case['spreading_factor']} K={case['n_users']}:"
            f" p50 {latency['p50_s'] * 1e3:.1f}ms"
            f" p95 {latency['p95_s'] * 1e3:.1f}ms"
            f" (found {case['mean_users_found']:.1f} users)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
