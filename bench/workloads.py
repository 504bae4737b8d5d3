"""The benchmark's four workloads: input generators, runners and checks.

Each workload is one set of inputs the benchmark feeds the system through
its public API.  A workload has three phases, all driven by ``child.py``
inside one fresh process:

* ``setup(params)`` constructs the system objects (the timed ``setup_s``
  together with ``import repro``);
* ``generate(params, seed, run)`` builds every input of one run from the
  benchmark seed and the run's index alone -- IQ chunks pre-rendered into
  memory, uplink frames pre-built -- before any timing starts;
* ``run(system, inputs)`` feeds the inputs in a closed loop and returns a
  :class:`Measured` record: the timed wall, per-packet latencies, the
  delivered count, an output digest and the correctness checks.

A gateway workload is a fixed deployment -- node SNRs, channels,
transmit schedules, radio offsets and receiver noise, all drawn once from
:data:`DEPLOYMENT_SEED` -- and ``(seed, run)`` draws the payload bytes
every node sends.  So another seed or run changes every symbol on the air
but not the collision geometry, and a metric moves with the code, not
with which nodes happened to overlap.  The server workload is large
enough (50k uplinks) to draw everything from ``(seed, run)``.

The system never sees the seed: the gateway decoder's own RNG seed is a
fixed system parameter, so two runs on the same inputs must produce the
same digest.  Parameters are plain JSON so the runner can record them in
provenance and tests can shrink a workload by passing smaller values.

Nothing at module level imports numpy or repro: ``child.py`` times
``import repro`` as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Pinned in every measured process.  Unpinned, OpenBLAS threads compete
#: with the gateway's decode threads for the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Seed of the gateway decoder's job RNGs.  A system setting, not an
#: input: it stays fixed so the benchmark seed changes only the traffic.
DECODER_SEED = 0

#: Seed of every gateway workload's deployment (see the module docs).
DEPLOYMENT_SEED = 0

clock = time.perf_counter


class Stopwatch:
    """The timed window of one run: ``start()`` before, ``stop()`` after.

    :class:`spans.Tracer` has the same interface, so a traced run's layer
    accounting covers exactly the timed call.
    """

    def __init__(self) -> None:
        self.window = (0.0, 0.0)

    def start(self) -> None:
        self.window = (clock(), 0.0)

    def stop(self) -> None:
        self.window = (self.window[0], clock())

    @property
    def window_s(self) -> float:
        return self.window[1] - self.window[0]


@dataclass(frozen=True)
class Workload:
    """One named workload: its kind and default parameters.

    Why each exists is recorded with its name in ``BENCHMARK.json``.
    """

    name: str
    kind: str  # "gateway" or "server"
    params: Dict[str, Any]
    #: Whether every run on the same inputs must give the same digest.
    #: False only where a thread pool with a dropping queue decodes.
    deterministic: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gw_eu868_mixed",
            kind="gateway",
            params={
                "layout": "sharded",
                "n_channels": 8,
                "sf_set": [7, 8],
                "n_nodes": 8,
                "period_s": 0.5,
                "snr_db": 15.0,
                "payload_len": 4,
                "duration_s": 1.0,
                "n_workers": 2,
                "executor": "thread",
            },
            deterministic=False,
        ),
        Workload(
            name="gw_collide_sf7",
            kind="gateway",
            params={
                "layout": "single",
                "spreading_factor": 7,
                "n_nodes": 8,
                "snr_db_range": [10.0, 20.0],
                "period_s": 0.5,
                "payload_len": 4,
                "duration_s": 4.0,
                "executor": "serial",
            },
        ),
        Workload(
            name="city_urban_800",
            kind="gateway",
            params={
                "layout": "scenario",
                "scenario": "scenarios/eu868_urban.yaml",
                "n_nodes": 800,
                "duration_s": 1.0,
                "variant": "choir",
            },
        ),
        Workload(
            name="server_uplinks",
            kind="server",
            params={
                "n_gateways": 4,
                "n_devices": 5000,
                "uplinks_per_device": 10,
                "period_s": 60.0,
                "p_hear": 0.6,
                "max_devices": 5000,
                "max_delivered_log": 10000,
            },
        ),
    )
}


def resolve_params(name: str, overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The workload's defaults with ``overrides`` applied (unknown keys rejected)."""
    workload = WORKLOADS[name]
    params = dict(workload.params)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise KeyError(f"{name}: unknown workload parameter {key!r}")
        params[key] = value
    return params


def digest_of(obj: Any) -> str:
    """SHA-256 of a JSON-serializable object (sorted keys)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Measured:
    """What one timed run of a workload produced."""

    wall_s: float
    input_s: float  # air seconds (gateway) or uplink-traffic seconds (server)
    latencies_s: List[float]
    attempted: int
    delivered: int
    failed: int
    digest: str
    checks: Dict[str, bool]
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def realtime_x(self) -> float:
        """Input seconds processed per wall second of the timed call."""
        return self.input_s / self.wall_s


# ----------------------------------------------------------------------
# Gateway workloads
# ----------------------------------------------------------------------
@dataclass
class GatewayInputs:
    """A pre-rendered IQ stream and the ground truth it carries."""

    params: Any  # the source's LoRaParams
    chunks: List[Any]
    chunk_samples: int
    #: ``(payload, last_sample)`` per transmitted frame, in stream units.
    packets: List[Tuple[bytes, int]]
    air_s: float

    @property
    def n_samples(self) -> int:
        """Samples in the whole stream."""
        return sum(len(chunk) for chunk in self.chunks)


class OutcomeProbe:
    """The gateway's ``on_outcome`` tap: stamps each outcome on arrival.

    Pool worker threads call it; ``list.append`` is atomic, so no lock.
    """

    def __init__(self) -> None:
        self.events: List[Tuple[float, Any]] = []

    def __call__(self, outcome: Any) -> None:
        self.events.append((clock(), outcome))


class ReplaySource:
    """Closed-loop replay: hands over the next chunk when the gateway asks.

    ``handed[i]`` is when chunk ``i`` was handed over, the reference a
    packet's latency is measured from.
    """

    def __init__(self, params: Any, chunks: List[Any]) -> None:
        self.params = params
        self._chunks = chunks
        self.handed: List[float] = []

    def chunks(self) -> Any:
        for chunk in self._chunks:
            self.handed.append(clock())
            yield chunk


def setup_gateway(params: Dict[str, Any]) -> Tuple[Any, OutcomeProbe]:
    """Construct the gateway for a gateway workload, with its outcome tap."""
    probe = OutcomeProbe()
    layout = params["layout"]
    if layout == "sharded":
        from repro.gateway import ShardedGateway, ShardedGatewayConfig
        from repro.phy.params import ChannelPlan

        config = ShardedGatewayConfig(
            plan=ChannelPlan.eu868_style(params["n_channels"]),
            sf_set=tuple(params["sf_set"]),
            payload_len=params["payload_len"],
            n_workers=params["n_workers"],
            executor=params["executor"],
            seed=DECODER_SEED,
        )
        return ShardedGateway(config, on_outcome=probe), probe
    if layout == "single":
        from repro.gateway import Gateway, GatewayConfig
        from repro.phy.params import LoRaParams

        config = GatewayConfig(
            params=LoRaParams(spreading_factor=params["spreading_factor"]),
            payload_len=params["payload_len"],
            executor=params["executor"],
            seed=DECODER_SEED,
        )
        return Gateway(config, on_outcome=probe), probe
    if layout == "scenario":
        from repro.gateway import ShardedGateway
        from repro.scenario import build_gateway_config, load_scenario

        spec = load_scenario(str(ROOT / params["scenario"]))
        config = build_gateway_config(spec, params["variant"])
        return ShardedGateway(config, on_outcome=probe), probe
    raise ValueError(f"unknown gateway layout {layout!r}")


def generate_gateway(params: Dict[str, Any], seed: int, run: int) -> GatewayInputs:
    """Render one run's whole IQ stream into memory.

    The deployment comes from :data:`DEPLOYMENT_SEED`; ``(seed, run)``
    draws the payload of every frame, keyed by ``(node_id, packet_seq)``.
    """
    import numpy as np

    from repro.gateway import SyntheticTrafficSource
    from repro.gateway.sources import DEFAULT_CHUNK_SAMPLES
    from repro.mac.simulator import NodeConfig
    from repro.phy.params import ChannelPlan, LoRaParams
    from repro.utils import derive_rng

    def payload(node_id: int, packet_seq: int) -> bytes:
        draw = derive_rng(seed, run, node_id, packet_seq)
        return draw.integers(0, 256, payload_len, dtype=np.uint8).tobytes()

    layout = params["layout"]
    plan: Optional[Any] = None
    chunk_samples = DEFAULT_CHUNK_SAMPLES
    source_rng: Any = DEPLOYMENT_SEED
    if layout == "sharded":
        plan = ChannelPlan.eu868_style(params["n_channels"])
        sfs = params["sf_set"]
        base = LoRaParams(spreading_factor=sfs[0])
        payload_len = params["payload_len"]
        nodes = [
            NodeConfig(
                node_id=i,
                snr_db=params["snr_db"],
                period_s=params["period_s"],
                channel=i % plan.n_channels,
                spreading_factor=sfs[i % len(sfs)],
            )
            for i in range(params["n_nodes"])
        ]
    elif layout == "single":
        base = LoRaParams(spreading_factor=params["spreading_factor"])
        payload_len = params["payload_len"]
        lo, hi = params["snr_db_range"]
        snrs = np.random.default_rng(DEPLOYMENT_SEED).uniform(lo, hi, params["n_nodes"])
        nodes = [
            NodeConfig(node_id=i, snr_db=float(snrs[i]), period_s=params["period_s"])
            for i in range(params["n_nodes"])
        ]
    elif layout == "scenario":
        from repro.scenario import build_nodes, build_plan, load_scenario, source_seed

        # What build_source() builds, plus the payload_fn it cannot take:
        # the same plan, nodes, chunking and source seed.
        spec = load_scenario(str(ROOT / params["scenario"]))
        plan = build_plan(spec)
        base = plan.channel_params(min(spec.traffic.spreading_factors))
        payload_len = spec.traffic.payload_len
        nodes = build_nodes(spec, params["n_nodes"], DEPLOYMENT_SEED)
        chunk_samples = spec.gateway.chunk_samples
        source_rng = source_seed(spec, params["n_nodes"], DEPLOYMENT_SEED)
    else:
        raise ValueError(f"unknown gateway layout {layout!r}")
    source = SyntheticTrafficSource(
        base,
        nodes,
        duration_s=params["duration_s"],
        payload_len=payload_len,
        chunk_samples=chunk_samples,
        plan=plan,
        rng=source_rng,
        payload_fn=payload,
    )
    chunks = list(source.chunks())
    oversample = 1 if plan is None else plan.oversample_factor
    preamble_len = source.params.preamble_len
    packets = []
    for packet in source.transmitted:
        sf = packet.spreading_factor or source.params.spreading_factor
        frame_nb = (preamble_len + packet.n_data_symbols) * (1 << sf)
        packets.append((packet.payload, packet.start_sample + frame_nb * oversample - 1))
    rate = source.params.sample_rate if plan is None else plan.wideband_rate
    return GatewayInputs(
        params=source.params,
        chunks=chunks,
        chunk_samples=source.chunk_samples,
        packets=packets,
        air_s=sum(len(c) for c in chunks) / rate,
    )


def run_gateway(
    system: Tuple[Any, OutcomeProbe], inputs: GatewayInputs, window: Stopwatch
) -> Measured:
    """Replay the stream through ``Gateway.run`` and score the outcomes."""
    from repro.scenario import report_digest

    gateway, probe = system
    source = ReplaySource(inputs.params, inputs.chunks)
    window.start()
    report = gateway.run(source)
    window.stop()

    sent = Counter(payload for payload, _ in inputs.packets)
    got = Counter(report.decoded_payloads)
    delivered = sum((sent & got).values())
    # Latency: outcome arrival minus hand-over of the chunk holding the
    # frame's last sample; each transmitted frame is matched at most once.
    pending: Dict[bytes, List[int]] = {}
    for payload, last in sorted(inputs.packets, key=lambda p: p[1]):
        pending.setdefault(payload, []).append(last)
    latencies = []
    for stamp, outcome in probe.events:
        lasts = pending.get(outcome.payload) if outcome.crc_ok else None
        if lasts:
            chunk_index = lasts.pop(0) // inputs.chunk_samples
            latencies.append(stamp - source.handed[chunk_index])
    errors = sum(1 for o in report.outcomes if o.error is not None)
    checks = {
        "no_payload_outside_transmitted": not (got - sent),
        "no_error_outcomes": errors == 0 and report.decode_errors == 0,
        "samples_in_equal_input": report.samples_in == inputs.n_samples,
        "chunks_in_equal_input": report.chunks_in == len(inputs.chunks),
        "every_outcome_streamed": len(probe.events) == len(report.outcomes),
    }
    return Measured(
        wall_s=window.window_s,
        input_s=inputs.air_s,
        latencies_s=latencies,
        attempted=len(inputs.packets),
        delivered=delivered,
        failed=errors + sum((got - sent).values()),
        digest=digest_of(report_digest(report)),
        checks=checks,
        counts={
            "transmitted": len(inputs.packets),
            "delivered": delivered,
            "decode_jobs": len(report.outcomes),
            "crc_ok": report.packets_decoded,
            "dropped": report.packets_dropped,
            "errors": errors,
            "chunks": len(inputs.chunks),
        },
    )


# ----------------------------------------------------------------------
# Server workload
# ----------------------------------------------------------------------
@dataclass
class ServerInputs:
    """Pre-built per-gateway uplink streams, each time-ordered."""

    streams: List[List[Any]]
    n_unique: int
    n_copies: int
    traffic_s: float


def generate_server(params: Dict[str, Any], seed: int, run: int) -> ServerInputs:
    """Build every gateway copy of every uplink from ``(seed, run)``.

    Device ``d`` sends ``uplinks_per_device`` uplinks ``period_s`` apart
    from a random phase.  Each gateway hears an uplink with probability
    ``p_hear`` (a random gateway hears it when none did), with a per
    (device, gateway) link SNR plus per-copy fading and a backhaul delay
    well inside the dedup window.
    """
    import numpy as np

    from repro.server import UplinkFrame

    rng = np.random.default_rng([seed, run])
    n_dev = params["n_devices"]
    n_up = params["uplinks_per_device"]
    n_gw = params["n_gateways"]
    period = params["period_s"]
    sent_s = rng.uniform(0.0, period, n_dev)[:, None] + period * np.arange(n_up)
    heard = rng.random((n_dev, n_up, n_gw)) < params["p_hear"]
    deaf = ~heard.any(axis=2)
    heard[deaf, rng.integers(0, n_gw, int(deaf.sum()))] = True
    link_db = rng.uniform(-12.0, 22.0, n_dev)[:, None] + rng.normal(0.0, 4.0, (n_dev, n_gw))
    snr = link_db[:, None, :] + rng.normal(0.0, 2.0, (n_dev, n_up, n_gw))
    received = sent_s[:, :, None] + rng.uniform(0.0, 0.05, (n_dev, n_up, n_gw))
    streams = []
    for g in range(n_gw):
        dev, up = np.nonzero(heard[:, :, g])
        order = np.argsort(received[dev, up, g], kind="stable")
        dev, up = dev[order], up[order]
        times = received[dev, up, g]
        snrs = snr[dev, up, g]
        streams.append(
            [
                UplinkFrame(
                    gateway_id=g,
                    device_addr=int(d),
                    fcnt=int(u),
                    snr_db=float(s),
                    received_s=float(t),
                    seq=seq,
                )
                for seq, (d, u, s, t) in enumerate(zip(dev, up, snrs, times))
            ]
        )
    return ServerInputs(
        streams=streams,
        n_unique=n_dev * n_up,
        n_copies=int(heard.sum()),
        traffic_s=n_up * period,
    )


class TimedServer:
    """The client side of the server: stamps each copy and each delivery.

    ``run_streams`` calls :meth:`handle_uplink` as it would the server's.
    An uplink's latency runs from handing its first copy to the server to
    the call that returns it as delivered.
    """

    def __init__(self, server: Any) -> None:
        self.server = server
        self.first_s: Dict[Tuple[int, int], float] = {}
        self.latencies_s: List[float] = []
        self.keys: List[Tuple[int, int]] = []

    def handle_uplink(self, frame: Any) -> Any:
        self.first_s.setdefault((frame.device_addr, frame.fcnt), clock())
        out = self.server.handle_uplink(frame)
        if out:
            self.record_delivered([u.frame for u in out])
        return out

    def record_delivered(self, frames: List[Any]) -> None:
        done = clock()
        for frame in frames:
            key = (frame.device_addr, frame.fcnt)
            self.keys.append(key)
            self.latencies_s.append(done - self.first_s.pop(key))


def setup_server(params: Dict[str, Any]) -> Any:
    """Construct the network server and its config."""
    from repro.server import NetworkServer, ServerConfig

    config = ServerConfig(
        max_devices=params["max_devices"],
        max_delivered_log=params["max_delivered_log"],
    )
    return NetworkServer(config)


def run_server(server: Any, inputs: ServerInputs, window: Stopwatch) -> Measured:
    """Feed the merged streams, finish, and score the deliveries."""
    from repro.server import run_streams

    timed = TimedServer(server)
    window.start()
    ingested = run_streams(timed, inputs.streams)
    report = server.finish()
    window.stop()
    # finish() flushes the still-open window; those uplinks are the tail
    # of the delivered log.
    flushed = report.n_delivered - len(timed.keys)
    if flushed:
        timed.record_delivered([u.frame for u in report.delivered[-flushed:]])
    commands = server.drain_commands()
    checks = {
        "ingested_equal_copies": ingested == inputs.n_copies == report.n_ingested,
        "delivered_equal_unique": report.n_delivered == inputs.n_unique,
        "duplicates_equal_copies_minus_unique": (
            report.n_duplicates == inputs.n_copies - inputs.n_unique
        ),
        "zero_replays": report.n_replays == 0,
        "every_delivery_timed": len(timed.latencies_s) == report.n_delivered,
    }
    return Measured(
        wall_s=window.window_s,
        input_s=inputs.traffic_s,
        latencies_s=timed.latencies_s,
        attempted=inputs.n_unique,
        delivered=report.n_delivered,
        failed=max(inputs.n_unique - report.n_delivered, 0) + report.n_replays,
        digest=digest_of(
            {"delivered": timed.keys, "final_sf": sorted(report.final_sf.items())}
        ),
        checks=checks,
        counts={
            "copies": inputs.n_copies,
            "unique": inputs.n_unique,
            "delivered": report.n_delivered,
            "duplicates": report.n_duplicates,
            "replays": report.n_replays,
            "adr_commands": len(commands),
        },
    )


# ----------------------------------------------------------------------
# Dispatch by kind
# ----------------------------------------------------------------------
SETUP: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "gateway": setup_gateway,
    "server": setup_server,
}
GENERATE: Dict[str, Callable[[Dict[str, Any], int, int], Any]] = {
    "gateway": generate_gateway,
    "server": generate_server,
}
RUN: Dict[str, Callable[[Any, Any, Stopwatch], Measured]] = {
    "gateway": run_gateway,
    "server": run_server,
}
