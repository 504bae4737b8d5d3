"""Command-line interface: run any paper experiment from the terminal.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig8d            # one experiment's table
    python -m repro run all              # everything (slow)
    python -m repro gateway --duration 5 --workers 4   # streaming runtime
    python -m repro gateway --trace-out trace.json     # + provenance trace
    python -m repro forensics trace.json               # per-packet post-mortem
    python -m repro server --gateways 2 --duration 120  # closed ADR loop
    python -m repro campaign --scenario scenarios/eu868_urban.yaml  # capacity sweep
    python -m repro gateway --profile-out run.json     # kernel profile + manifest
    python -m repro diff baseline.json candidate.json  # threshold-verdict diff

Each experiment prints the same rows/series the paper's figure reports;
ASCII charts accompany the series-shaped ones.  ``gateway`` runs the
streaming base-station runtime over synthetic traffic (or a recorded IQ
capture with ``--input``) and prints its telemetry summary; ``forensics``
ingests a trace written with ``--trace-out`` and explains every lost
packet.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.core.cascade import DEFAULT_DECODE_TIER
from repro.experiments import (
    run_collision_peaks,
    run_density_vs_snr,
    run_density_vs_users,
    run_grouping_error,
    run_isi_windows,
    run_mimo_comparison,
    run_mixed_throughput,
    run_offset_cdf,
    run_offset_stability,
    run_range_throughput,
    run_range_vs_team,
    run_residual_surface,
    run_resolution_vs_distance,
)
from repro.experiments import (
    run_beacon_scheduling,
    run_energy_comparison,
    run_multisf_demux,
    run_phy_calibration,
    run_unb_separation,
)
from repro.experiments.ablations import (
    ablation_detection_resolution,
    ablation_fft_oversampling,
    ablation_fine_vs_coarse,
    ablation_preamble_accumulation,
    ablation_sic_strategies,
    ablation_splicing,
)
from repro.gateway.workers import DECODE_TIERS, DROP_POLICIES, EXECUTORS
from repro.utils.ascii_plot import ascii_bars, ascii_line

EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig3": (run_collision_peaks, "collided chirp peak structure"),
    "fig4": (run_residual_surface, "residual surface convexity"),
    "fig5": (run_isi_windows, "inter-symbol interference / dedup"),
    "fig7ab": (run_offset_cdf, "hardware offset diversity CDFs"),
    "fig7cd": (run_offset_stability, "within-packet offset stability"),
    "fig8ac": (run_density_vs_snr, "2-user density vs SNR"),
    "fig8d": (run_density_vs_users, "density scaling 2..10 users"),
    "fig9a": (run_range_throughput, "team throughput vs team size"),
    "fig9b": (run_range_vs_team, "max distance vs team size"),
    "fig10": (run_resolution_vs_distance, "sensor resolution vs distance"),
    "fig11a": (run_grouping_error, "grouping strategies"),
    "fig11b": (run_mixed_throughput, "mixed near/far throughput"),
    "fig12": (run_mimo_comparison, "Choir vs MU-MIMO"),
    "multisf": (run_multisf_demux, "multi-SF demultiplexing (ext)"),
    "unb": (run_unb_separation, "ultra-narrowband separation (ext)"),
    "energy": (run_energy_comparison, "battery life from retransmissions"),
    "beacon": (run_beacon_scheduling, "beacon team scheduling"),
    "calibration": (run_phy_calibration, "PHY model vs waveform decoder (slow)"),
    "ablation-fine": (ablation_fine_vs_coarse, "fine vs coarse offsets"),
    "ablation-sic": (ablation_sic_strategies, "SIC strategies"),
    "ablation-fft": (ablation_fft_oversampling, "FFT oversampling"),
    "ablation-accum": (ablation_preamble_accumulation, "preamble accumulation"),
    "ablation-detect": (ablation_detection_resolution, "detection zero-padding factor"),
    "ablation-splice": (ablation_splicing, "data splicing"),
}


def _chart_for(name: str, result) -> str | None:
    """An ASCII chart for series-shaped experiments."""
    if name == "fig8d":
        choir = [r["throughput_bps"] for r in result.rows if r["system"] == "choir"]
        return ascii_line(
            choir, label="Choir network throughput (bps) vs users 2..10"
        )
    if name == "fig9b":
        return ascii_bars(
            [r["band"] for r in result.rows],
            [r["max_distance_m"] for r in result.rows],
            unit=" m",
        )
    if name == "fig10":
        return ascii_line(
            [r["temperature_error"] for r in result.rows],
            label="temperature resolution error vs distance",
        )
    if name == "fig12":
        return ascii_bars(
            [r["system"] for r in result.rows],
            [r["throughput_bps"] for r in result.rows],
            unit=" bps",
        )
    return None


def cmd_list() -> int:
    """Print the experiment registry."""
    width = max(len(n) for n in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")
    return 0


def cmd_report(output_dir: str, names: list[str]) -> int:
    """Run experiments and write their tables (text + CSV) to a directory."""
    import pathlib

    targets = list(EXPERIMENTS) if not names or names == ["all"] else names
    unknown = [n for n in targets if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    index_lines = ["# Experiment report", ""]
    for name in targets:
        fn, description = EXPERIMENTS[name]
        start = time.time()
        result = fn()
        (out / f"{name}.txt").write_text(str(result) + "\n")
        csv_text = result.to_csv()
        if csv_text:
            (out / f"{name}.csv").write_text(csv_text)
        elapsed = time.time() - start
        index_lines.append(f"- `{name}` ({description}): {elapsed:.1f}s")
        print(f"{name}: wrote {name}.txt / {name}.csv [{elapsed:.1f}s]")
    (out / "INDEX.md").write_text("\n".join(index_lines) + "\n")
    print(f"\nreport written to {out}/")
    return 0


def _parse_sf_set(text: str) -> tuple[int, ...]:
    """Parse a ``--sf-set`` comma list like ``7,8`` into a tuple of ints."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --sf-set {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("--sf-set must name at least one SF")
    return values


def cmd_gateway(args: argparse.Namespace) -> int:
    """Run the streaming gateway and print its telemetry summary."""
    from repro.gateway import (
        Gateway,
        GatewayConfig,
        IqFileSource,
        SyntheticTrafficSource,
    )
    from repro.gateway.sources import SampleSource, round_robin_plan
    from repro.phy.params import LoRaParams

    sf_set = args.sf_set if args.sf_set is not None else (args.sf,)
    params = LoRaParams(spreading_factor=sf_set[0])
    plan = round_robin_plan(args.channels, sf_set)
    config = GatewayConfig(
        params=params,
        plan=plan,
        sf_set=sf_set,
        payload_len=args.payload_len,
        n_workers=args.workers,
        executor=args.executor,
        queue_capacity=args.queue_capacity,
        drop_policy=args.drop_policy,
        decode_tier=args.decode_tier,
        seed=args.seed,
        trace=bool(args.trace_out),
        trace_sample_rate=args.trace_sample_rate,
        profile=bool(args.profile_out or args.stacks_out),
        profile_alloc=args.profile_alloc,
    )
    source: SampleSource
    if args.input is not None:
        if plan is not None:
            print("--input replay is single-channel only", file=sys.stderr)
            return 2
        source = IqFileSource(params, args.input)
        print(f"replaying {args.input}")
    else:
        source = SyntheticTrafficSource.round_robin(
            sf_set,
            args.nodes,
            args.duration,
            n_channels=args.channels,
            snr_db=args.snr,
            period_s=args.period,
            payload_len=args.payload_len,
            rng=args.seed,
        )
        print(
            f"synthesizing {args.duration:.1f}s of"
            f" {'narrowband' if plan is None else 'wideband'} traffic:"
            f" {args.nodes} node(s) across {config.n_channels} channel(s),"
            f" SF set {','.join(str(s) for s in config.sf_set)},"
            f" period {args.period}s, {args.snr:.0f} dB SNR"
        )
    gateway = Gateway(config)
    report = gateway.run(source)
    print(report.summary())
    if isinstance(source, SyntheticTrafficSource):
        sent = sorted(p.payload for p in source.transmitted)
        got = sorted(report.decoded_payloads)
        matched = sum(1 for p in got if p in sent)
        print(f"ground truth  {matched}/{len(sent)} transmitted payloads recovered")
    gateway.write_artifacts(
        report,
        "gateway",
        {
            "duration_s": args.duration,
            "n_nodes": args.nodes,
            "period_s": args.period,
            "snr_db": args.snr,
            "payload_len": args.payload_len,
            "n_workers": args.workers,
            "executor": args.executor,
            "seed": args.seed,
            "spreading_factor": args.sf,
            "n_channels": args.channels,
            "sf_set": list(sf_set),
            "decode_tier": args.decode_tier,
        },
        telemetry_out=args.telemetry_out,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        profile_out=args.profile_out,
        stacks_out=args.stacks_out,
    )
    return 0


def cmd_server(args: argparse.Namespace) -> int:
    """Run the closed-loop multi-gateway network-server scenario."""
    from repro.server import ServerConfig, build_scenario, run_closed_loop

    node_snrs = [
        args.snr_hi if i % 2 == 0 else args.snr_lo for i in range(args.nodes)
    ]
    server_config = (
        ServerConfig(
            dedup_window_s=args.dedup_window,
            adr_initial_sf=args.initial_sf,
        )
        if args.dedup_window is not None
        else None  # build_scenario defaults the window to two slots
    )
    sim, phy, server = build_scenario(
        n_gateways=args.gateways,
        node_snrs_db=node_snrs,
        initial_sf=args.initial_sf,
        seed=args.seed,
        server_config=server_config,
    )
    if args.state_in:
        with open(args.state_in) as handle:
            n_loaded = server.restore_sessions(handle.read())
        print(f"restored {n_loaded} session(s) from {args.state_in}")
    print(
        f"closed-loop scenario: {args.gateways} gateway(s), {args.nodes} "
        f"node(s) at {args.snr_hi:.0f}/{args.snr_lo:.0f} dB, initial SF"
        f"{args.initial_sf}, {args.duration:.1f}s simulated"
    )
    accountant = None
    if args.profile_out:
        from repro.profile.resources import ResourceAccountant

        accountant = ResourceAccountant(alloc_top_n=args.profile_alloc)
        accountant.start()
    report = run_closed_loop(sim, phy, server, args.duration)
    resources = accountant.stop() if accountant is not None else None
    faster, slower = report.moved_faster(), report.moved_slower()
    print(
        f"ingested {report.server.n_ingested} gateway copies -> "
        f"{report.server.n_delivered} delivered "
        f"({report.server.n_duplicates} duplicates collapsed, "
        f"{report.server.n_replays} replays rejected)"
    )
    print(f"downlink commands: {report.n_commands}")
    for nid in sorted(report.final_sf):
        trajectory = " -> ".join(str(sf) for sf in report.sf_trajectory[nid])
        print(
            f"  node {nid}: SF {trajectory}"
            f" (best gateway {report.best_gateway_truth.get(nid, '-')})"
        )
    print(
        f"ADR moved {len(faster)} node(s) faster, {len(slower)} node(s) slower"
    )
    print(server.telemetry.summary())
    if args.metrics_out:
        server.telemetry.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.state_out:
        with open(args.state_out, "w") as handle:
            handle.write(report.server.sessions_jsonl)
        print(f"session state written to {args.state_out}")
    if args.profile_out:
        from repro.profile import write_profile_artifacts

        write_profile_artifacts(
            "server",
            {
                "n_gateways": args.gateways,
                "n_nodes": args.nodes,
                "duration_s": args.duration,
                "snr_hi_db": args.snr_hi,
                "snr_lo_db": args.snr_lo,
                "initial_sf": args.initial_sf,
                "seed": args.seed,
            },
            profile_out=args.profile_out,
            seed=args.seed,
            telemetry=server.telemetry,
            resources=resources,
            extra_metrics={
                "server.ingested": float(report.server.n_ingested),
                "server.delivered": float(report.server.n_delivered),
                "server.duplicates": float(report.server.n_duplicates),
                "server.commands": float(report.n_commands),
            },
        )
    if args.assert_adr and (not faster or not slower):
        print(
            "ADR convergence assertion failed: expected at least one node "
            "to speed up and one to slow down",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run the node-count capacity sweep described by a scenario file."""
    from repro.scenario import (
        ScenarioError,
        load_scenario,
        run_campaign,
    )

    try:
        spec = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    node_counts = args.nodes if args.nodes else None
    counts = node_counts if node_counts is not None else list(spec.sweep.node_counts)
    duration = args.duration if args.duration is not None else spec.sweep.duration_s
    print(
        f"campaign '{spec.name}': sweeping "
        f"{', '.join(str(n) for n in counts)} node(s) for {duration:.0f}s "
        f"simulated air time each, {spec.plan.n_channels}-channel "
        f"{spec.plan.region} plan, choir tier '{spec.gateway.decode_tier}' "
        f"vs baseline tier '{spec.baseline.decode_tier}' "
        f"(max_users={spec.baseline.max_users})"
    )

    profiler = None
    if args.profile_out or args.stacks_out:
        from repro.profile import KernelProfiler

        profiler = KernelProfiler()

    # Heartbeat state: completed points weight the ETA by node count
    # (cost scales superlinearly, but linear already beats uniform).
    total_weight = float(sum(counts)) or 1.0
    done_weight = 0.0
    started_at = time.time()

    def _progress(point) -> None:
        nonlocal done_weight
        done_weight += point.n_nodes
        elapsed = time.time() - started_at
        remaining = total_weight - done_weight
        eta = elapsed / done_weight * remaining if done_weight else 0.0
        print(
            f"  n={point.n_nodes}: offered G={point.offered_load_erlangs:.3f}, "
            f"choir {point.choir.delivery_rate:.3f} "
            f"({point.choir.packets_delivered}/{point.choir.packets_offered}), "
            f"baseline {point.baseline.delivery_rate:.3f} "
            f"({point.baseline.packets_delivered}/"
            f"{point.baseline.packets_offered}), "
            f"active peak {point.source_active_peak}"
        )
        print(
            f"    [heartbeat] elapsed {elapsed:.1f}s, eta ~{eta:.0f}s, "
            f"cpu {point.choir.cpu_s + point.baseline.cpu_s:.1f}s, "
            f"peak rss {point.choir.max_rss_kb / 1024.0:.0f}MB, "
            f"worker peak rss {point.choir.worker_max_rss_kb / 1024.0:.0f}MB"
        )
        sys.stdout.flush()

    accountant = None
    if args.profile_out:
        from repro.profile.resources import ResourceAccountant

        accountant = ResourceAccountant(alloc_top_n=args.profile_alloc)
        accountant.start()
    try:
        curve = run_campaign(
            spec,
            node_counts=node_counts,
            duration_s=args.duration,
            seed=args.seed,
            on_point=_progress,
            profiler=profiler,
        )
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    resources = accountant.stop() if accountant is not None else None
    print()
    print(curve.chart())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(curve.to_json() + "\n")
        print(f"curve JSON written to {args.json_out}")
    if args.csv_out:
        with open(args.csv_out, "w") as handle:
            handle.write(curve.to_csv())
        print(f"curve CSV written to {args.csv_out}")
    if args.profile_out or args.stacks_out:
        point_metrics: dict[str, float] = {}
        for p in curve.points:
            for variant in (p.choir, p.baseline):
                prefix = f"campaign.n{p.n_nodes}.{variant.variant}"
                point_metrics[f"{prefix}.delivery_rate"] = variant.delivery_rate
                point_metrics[f"{prefix}.wall_s"] = variant.wall_s
                point_metrics[f"{prefix}.cpu_s"] = variant.cpu_s
                point_metrics[f"{prefix}.max_rss_kb"] = float(
                    variant.max_rss_kb
                )
        from repro.profile import write_profile_artifacts

        seed = args.seed if args.seed is not None else spec.sweep.seed
        write_profile_artifacts(
            "campaign",
            {
                "scenario": spec.name,
                "node_counts": list(counts),
                "duration_s": duration,
                "seed": seed,
            },
            profile_out=args.profile_out,
            stacks_out=args.stacks_out,
            seed=seed,
            profiler=profiler,
            resources=resources,
            extra_metrics=point_metrics,
            points=[p.to_dict() for p in curve.points],
        )
    if args.assert_ordering:
        problems = curve.ordering_violations(strict_above=args.strict_above)
        if problems:
            print(
                "capacity ordering assertion failed:\n  "
                + "\n  ".join(problems),
                file=sys.stderr,
            )
            return 1
        print(
            "capacity ordering holds: choir >= baseline at every point, "
            f"strictly above at n >= {args.strict_above}"
        )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two run manifests; exit 1 on thresholded regressions."""
    from repro.profile import diff_metrics, digest_line, load_manifest

    try:
        baseline = load_manifest(args.baseline)
        candidate = load_manifest(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(
        f"baseline : {args.baseline} "
        f"(kind={baseline.kind}, seed={baseline.seed})"
    )
    print(
        f"candidate: {args.candidate} "
        f"(kind={candidate.kind}, seed={candidate.seed})"
    )
    if baseline.kind != candidate.kind:
        print(
            f"note: comparing different run kinds "
            f"({baseline.kind} vs {candidate.kind})"
        )
    if baseline.digest is not None and candidate.digest is not None:
        print(digest_line(baseline.digest, candidate.digest))
    report = diff_metrics(
        baseline.metrics,
        candidate.metrics,
        tolerance=args.tolerance,
        slack=args.slack,
    )
    for line in report.lines(show_ok=args.show_ok):
        print(line)
    print(report.summary())
    code = report.exit_code(strict=args.assert_no_regression)
    if code:
        tally = len(report.regressions)
        missing = len(report.missing)
        parts = [f"{tally} regression(s)"]
        if args.assert_no_regression and missing:
            parts.append(f"{missing} missing baseline metric(s)")
        print("REGRESSION: " + ", ".join(parts), file=sys.stderr)
    else:
        print("no regressions")
    return code


def cmd_run(names: list[str]) -> int:
    """Run the named experiments and print their tables."""
    targets = list(EXPERIMENTS) if names == ["all"] else names
    unknown = [n for n in targets if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in targets:
        fn, _ = EXPERIMENTS[name]
        start = time.time()
        result = fn()
        print(result)
        chart = _chart_for(name, result)
        if chart:
            print()
            print(chart)
        print(f"[{time.time() - start:.1f}s]\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Choir (SIGCOMM 2017) reproduction -- experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments by name (or 'all')")
    run_parser.add_argument("names", nargs="+", help="experiment names")
    report_parser = sub.add_parser(
        "report", help="write experiment tables (text + CSV) to a directory"
    )
    report_parser.add_argument("output_dir", help="directory to write into")
    report_parser.add_argument(
        "names", nargs="*", help="experiment names (default: all)"
    )
    gw = sub.add_parser(
        "gateway", help="run the streaming gateway over synthetic or recorded IQ"
    )
    gw.add_argument("--duration", type=float, default=5.0, help="stream seconds")
    gw.add_argument("--workers", type=int, default=1, help="decode workers")
    gw.add_argument("--executor", choices=EXECUTORS, default="thread")
    gw.add_argument("--sf", type=int, default=7, help="spreading factor")
    gw.add_argument(
        "--channels",
        type=int,
        default=1,
        help="channels in the (EU868-style) plan; >1 adds the channelizer",
    )
    gw.add_argument(
        "--sf-set",
        type=_parse_sf_set,
        default=None,
        help="comma list of SFs to scan per channel (e.g. 7,8); implies a plan",
    )
    gw.add_argument("--nodes", type=int, default=2, help="synthetic node count")
    gw.add_argument(
        "--period", type=float, default=0.5, help="per-node transmit period (s)"
    )
    gw.add_argument("--snr", type=float, default=15.0, help="per-node SNR (dB)")
    gw.add_argument("--payload-len", type=int, default=4, help="payload bytes")
    gw.add_argument(
        "--seed", type=int, default=0, help="synthetic traffic seed; recorded in the run manifest"
    )
    gw.add_argument("--queue-capacity", type=int, default=8)
    gw.add_argument("--drop-policy", choices=DROP_POLICIES, default="newest")
    gw.add_argument(
        "--decode-tier",
        choices=DECODE_TIERS,
        default=DEFAULT_DECODE_TIER,
        help="decode pipeline per window: tiered cascade (default), full"
        " Choir on every window (the reference path), or Tier-0 fast path only",
    )
    gw.add_argument("--input", default=None, help="IQ capture to replay (.npy or raw complex64)")
    gw.add_argument("--telemetry-out", default=None, help="write telemetry JSON-lines here")
    gw.add_argument(
        "--metrics-out",
        default=None,
        help="write Prometheus text exposition here (e.g. metrics.prom)",
    )
    gw.add_argument(
        "--trace-out",
        default=None,
        help="write a decode provenance trace here"
        " (.jsonl, or .json for chrome://tracing)",
    )
    gw.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        help="fraction of jobs traced unconditionally (failures always kept)",
    )
    gw.add_argument(
        "--profile-out",
        default=None,
        help="write a diffable run manifest JSON here (enables the kernel"
        " profiler; compare runs with `python -m repro diff`)",
    )
    gw.add_argument(
        "--profile-alloc",
        type=int,
        default=0,
        metavar="N",
        help="also record the top-N allocation sites via tracemalloc"
        " (0 = off; tracing roughly doubles allocator cost)",
    )
    gw.add_argument(
        "--stacks-out",
        default=None,
        help="write collapsed kernel stacks here (flamegraph.pl /"
        " speedscope input; enables the kernel profiler)",
    )
    srv = sub.add_parser(
        "server",
        help="run the closed-loop multi-gateway network-server scenario",
    )
    srv.add_argument(
        "--gateways", type=int, default=2, help="overlapping gateways"
    )
    srv.add_argument(
        "--nodes",
        type=int,
        default=4,
        help="devices (alternating high/low SNR)",
    )
    srv.add_argument(
        "--duration", type=float, default=120.0, help="simulated seconds"
    )
    srv.add_argument(
        "--snr-hi", type=float, default=20.0, help="strong devices' SNR (dB)"
    )
    srv.add_argument(
        "--snr-lo", type=float, default=-4.0, help="weak devices' SNR (dB)"
    )
    srv.add_argument(
        "--initial-sf", type=int, default=10, help="starting spreading factor"
    )
    srv.add_argument(
        "--dedup-window",
        type=float,
        default=None,
        help="dedup window seconds (default: two slot times)",
    )
    srv.add_argument(
        "--seed", type=int, default=0, help="simulated traffic seed; recorded in the run manifest"
    )
    srv.add_argument(
        "--metrics-out",
        default=None,
        help="write server Prometheus exposition here",
    )
    srv.add_argument(
        "--state-out", default=None, help="write session JSONL snapshot here"
    )
    srv.add_argument(
        "--state-in", default=None, help="restore session JSONL snapshot first"
    )
    srv.add_argument(
        "--assert-adr",
        action="store_true",
        help="exit 1 unless ADR moved a node faster AND one slower (CI gate)",
    )
    srv.add_argument(
        "--profile-out",
        default=None,
        help="write a diffable run manifest JSON here (server runs record"
        " telemetry and resource usage; no DSP kernels)",
    )
    srv.add_argument(
        "--profile-alloc",
        type=int,
        default=0,
        metavar="N",
        help="also record the top-N allocation sites via tracemalloc (0 = off)",
    )
    camp = sub.add_parser(
        "campaign",
        help="run a scenario file's node-count capacity sweep"
        " (Choir vs standard LoRa)",
    )
    camp.add_argument(
        "--scenario",
        required=True,
        help="scenario file (.yaml/.yml/.json; see scenarios/)",
    )
    camp.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=None,
        help="override the sweep's node counts (e.g. --nodes 50 200 800)",
    )
    camp.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override simulated air seconds per sweep point",
    )
    camp.add_argument(
        "--seed", type=int, default=None, help="override the sweep seed"
    )
    camp.add_argument(
        "--json-out", default=None, help="write the capacity curve JSON here"
    )
    camp.add_argument(
        "--csv-out", default=None, help="write the plot-ready CSV here"
    )
    camp.add_argument(
        "--assert-ordering",
        action="store_true",
        help="exit 1 unless choir delivery >= baseline at every point"
        " (strictly above at n >= --strict-above); the CI capacity gate",
    )
    camp.add_argument(
        "--strict-above",
        type=int,
        default=200,
        help="node count from which choir must be strictly above baseline",
    )
    camp.add_argument(
        "--profile-out",
        default=None,
        help="write a diffable run manifest JSON here (whole-campaign kernel"
        " table, per-point resource curves)",
    )
    camp.add_argument(
        "--profile-alloc",
        type=int,
        default=0,
        metavar="N",
        help="also record the top-N allocation sites via tracemalloc (0 = off)",
    )
    camp.add_argument(
        "--stacks-out",
        default=None,
        help="write the campaign's collapsed kernel stacks here",
    )
    diff_parser = sub.add_parser(
        "diff",
        help="compare two run manifests written with --profile-out",
    )
    diff_parser.add_argument("baseline", help="baseline run manifest JSON")
    diff_parser.add_argument("candidate", help="candidate run manifest JSON")
    diff_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative drift allowed before a metric is flagged (default 25%%)",
    )
    diff_parser.add_argument(
        "--slack",
        type=float,
        default=0.0,
        help="absolute drift allowed on top of the tolerance (metric units)",
    )
    diff_parser.add_argument(
        "--assert-no-regression",
        action="store_true",
        help="strict CI gate: also exit 1 when baseline metrics are missing"
        " from the candidate",
    )
    diff_parser.add_argument(
        "--show-ok",
        action="store_true",
        help="print every compared metric, not just the interesting ones",
    )
    forensics_parser = sub.add_parser(
        "forensics",
        help="per-packet post-mortem of a trace written with --trace-out",
    )
    forensics_parser.add_argument("trace", help="trace file (.jsonl or .json)")
    forensics_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.names)
    if args.command == "report":
        return cmd_report(args.output_dir, args.names)
    if args.command == "gateway":
        return cmd_gateway(args)
    if args.command == "server":
        return cmd_server(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "forensics":
        from repro.trace.forensics import main as forensics_main

        forensics_argv = [args.trace] + (["--json"] if args.json else [])
        return forensics_main(forensics_argv)
    parser.print_help()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
