"""Cascade benchmark: tiered decode vs full Choir on a mixed workload.

Renders a deterministic stream of packet windows the way the streaming
gateway cuts them (:data:`repro.core.cascade.WINDOW_LEAD_SYMBOLS` of
noise lead, one symbol of tail) -- mostly
single-user clean packets with a configurable fraction of 2-4-user
collisions -- and times :func:`repro.gateway.workers.decode_packet_window`
on the *same* job set under each decode tier.  Records per-tier latency
percentiles, the cascade's escalation rate and reason histogram, the
implied realtime factor per tier, and the parity ledger (payloads the
full path recovers that the cascade loses must be zero; the safety suite
asserts it).  Writes ``BENCH_cascade.json``;
``tools/bench_report.py --compare`` gates CI against the committed
baseline.

Usage::

    PYTHONPATH=src python tools/bench_cascade.py                 # defaults
    PYTHONPATH=src python tools/bench_cascade.py --packets 40 \
        --collided-fraction 0.15 --out BENCH_cascade.json
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
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_decode import latency_summary  # noqa: E402
from repro.channel.noise import awgn  # noqa: E402
from repro.core.cascade import WINDOW_LEAD_SYMBOLS  # noqa: E402
from repro.gateway.workers import DecodeJob, decode_packet_window  # noqa: E402
from repro.hardware import LoRaRadio, OscillatorModel, TimingModel  # noqa: E402
from repro.phy.packet import LoRaFramer  # noqa: E402
from repro.phy.params import LoRaParams  # noqa: E402
from repro.utils import ensure_rng  # noqa: E402

#: Tiers timed against each other on the identical job set.
BENCH_TIERS = ("full", "cascade")


def build_workload(
    params: LoRaParams,
    n_packets: int,
    collided_fraction: float,
    payload_len: int,
    snr_db: float,
    seed: int,
) -> tuple[list[DecodeJob], list[set[bytes]], int]:
    """Render the mixed job set: mostly clean windows, some collisions.

    Returns ``(jobs, truths, n_collided)`` where ``truths[i]`` is the set
    of payloads transmitted inside window ``i``.  Every transmission is a
    CRC-valid frame, so the full pipeline has a fair shot at recovering
    collided users and the parity ledger is meaningful.  Single-user
    windows carry board-tolerance impairments; collided users get
    well-separated offsets and a 10-20 dB amplitude spread (the regime
    Choir disentangles -- same recipe as ``tools/bench_decode.py``), so
    the escalated decode measures real SIC work rather than retry-ladder
    thrash on hopeless windows.
    """
    rng = ensure_rng(seed)
    n_data = LoRaFramer(params).n_symbols_for_payload(payload_len)
    n = params.samples_per_symbol
    lead = WINDOW_LEAD_SYMBOLS * n
    amplitude = 10.0 ** (snr_db / 20.0)
    n_collided = int(round(n_packets * collided_fraction))
    jobs: list[DecodeJob] = []
    truths: list[set[bytes]] = []
    for i in range(n_packets):
        n_users = int(rng.integers(2, 5)) if i < n_collided else 1
        window = None
        truth: set[bytes] = set()
        for u in range(n_users):
            payload = bytes(rng.integers(0, 256, payload_len, dtype=np.uint8))
            if n_users > 1:
                cfo_bins = rng.uniform(2.0, params.chips_per_symbol - 4.0)
                radio = LoRaRadio(
                    params,
                    oscillator=OscillatorModel(params.bins_to_hz(cfo_bins)),
                    timing=TimingModel(rng.uniform(0.0, 8.0) / params.sample_rate),
                    node_id=u,
                    rng=rng,
                )
                user_amp = 10.0 ** (rng.uniform(10.0, 20.0) / 20.0)
            else:
                radio = LoRaRadio(params, node_id=u, rng=rng)
                user_amp = amplitude
            waveform, _, _ = radio.transmit_payload(payload, amplitude=user_amp)
            if window is None:
                window = np.concatenate(
                    [
                        np.zeros(lead, dtype=complex),
                        waveform,
                        np.zeros(n, dtype=complex),
                    ]
                )
            else:
                window[lead : lead + waveform.size] += waveform
            truth.add(payload)
        samples = awgn(window, 1.0, rng=rng)
        jobs.append(
            DecodeJob(
                job_id=i,
                samples=samples,
                n_data_symbols=n_data,
                payload_len=payload_len,
                start_sample=0,
                detection_score=10.0,
                created_at=0.0,
                params=params,
                key=(i,),
            )
        )
        truths.append(truth)
    return jobs, truths, n_collided


def run_benchmark(
    spreading_factor: int = 7,
    n_packets: int = 30,
    collided_fraction: float = 0.1,
    payload_len: int = 4,
    snr_db: float = 15.0,
    seed: int = 0,
    inner: int = 3,
    max_users: int | None = 4,
) -> dict:
    """Time every tier over the identical mixed job set; return the report.

    Each window is decoded ``inner`` times per tier and the minimum kept
    (decode is deterministic per capture, so the min strips scheduler
    noise); the recorded outcome comes from the timed calls, which are
    bit-identical across repeats.
    """
    params = LoRaParams(spreading_factor=spreading_factor)
    jobs, truths, n_collided = build_workload(
        params, n_packets, collided_fraction, payload_len, snr_db, seed
    )
    stream_s = sum(job.samples.size for job in jobs) / params.sample_rate
    tiers: dict[str, dict] = {}
    recovered_by: dict[str, list[set[bytes]]] = {}
    for tier in BENCH_TIERS:
        latencies: list[float] = []
        outcomes = []
        for job in jobs:
            elapsed = np.inf
            outcome = None
            for _ in range(inner):
                started = time.perf_counter()
                outcome = decode_packet_window(
                    job, max_users=max_users, decode_tier=tier
                )
                elapsed = min(elapsed, time.perf_counter() - started)
            latencies.append(elapsed)
            outcomes.append(outcome)
        recovered = [
            {u.payload for u in o.users if u.crc_ok and u.payload is not None}
            for o in outcomes
        ]
        recovered_by[tier] = recovered
        total_s = float(np.sum(latencies))
        entry = {
            "latency_s": latency_summary(latencies),
            "total_s": total_s,
            "realtime_factor": stream_s / total_s if total_s > 0 else 0.0,
            "recovered": sum(
                len(got & truth) for got, truth in zip(recovered, truths)
            ),
        }
        if tier == "cascade":
            escalated = [o for o in outcomes if o.escalation_reason is not None]
            reasons: dict[str, int] = {}
            for o in escalated:
                reasons[o.escalation_reason] = reasons.get(o.escalation_reason, 0) + 1
            entry["tier0_ok"] = sum(1 for o in outcomes if o.tier == "tier0")
            entry["escalated"] = len(escalated)
            entry["escalation_rate"] = len(escalated) / len(outcomes)
            entry["escalation_reasons"] = dict(sorted(reasons.items()))
            for sub, member in (("tier0", "tier0"), ("full", "full")):
                split = [
                    lat
                    for lat, o in zip(latencies, outcomes)
                    if o.tier == member
                ]
                if split:
                    entry[f"{sub}_latency_s"] = latency_summary(split)
        tiers[tier] = entry
    parity = {
        "recovered_by_full_only": sum(
            len(f - c) for f, c in zip(recovered_by["full"], recovered_by["cascade"])
        ),
        "recovered_by_cascade_only": sum(
            len(c - f) for f, c in zip(recovered_by["full"], recovered_by["cascade"])
        ),
    }
    return {
        "benchmark": "cascade",
        "config": {
            "spreading_factor": spreading_factor,
            "n_packets": n_packets,
            "collided_fraction": collided_fraction,
            "payload_len": payload_len,
            "snr_db": snr_db,
            "seed": seed,
            "inner": inner,
            "max_users": max_users,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workload": {
            "n_windows": n_packets,
            "n_collided": n_collided,
            "n_transmitted": sum(len(t) for t in truths),
            "stream_s": stream_s,
        },
        "tiers": tiers,
        "speedup": tiers["full"]["total_s"] / tiers["cascade"]["total_s"],
        "parity": parity,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=int, default=7)
    parser.add_argument("--packets", type=int, default=30)
    parser.add_argument(
        "--collided-fraction",
        type=float,
        default=0.1,
        help="fraction of windows carrying a 2-4-user collision",
    )
    parser.add_argument("--payload-len", type=int, default=4)
    parser.add_argument("--snr", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--inner", type=int, default=3, help="timing repeats per window (min kept)"
    )
    parser.add_argument("--out", default="BENCH_cascade.json")
    args = parser.parse_args(argv)
    result = run_benchmark(
        spreading_factor=args.sf,
        n_packets=args.packets,
        collided_fraction=args.collided_fraction,
        payload_len=args.payload_len,
        snr_db=args.snr,
        seed=args.seed,
        inner=args.inner,
    )
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    cascade = result["tiers"]["cascade"]
    print(
        f"cascade bench: {result['speedup']:.2f}x speedup over full"
        f" ({cascade['escalation_rate']:.0%} escalated),"
        f" parity full-only={result['parity']['recovered_by_full_only']}"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
