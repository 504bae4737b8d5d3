"""The streaming gateway runtime: ingest -> detect -> dispatch -> decode.

This is the base-station-side loop the paper assumes but the rest of the
repo never had: instead of decoding one pre-cut capture, the gateway
consumes a continuous IQ stream in chunks, finds packets on the fly, and
keeps decoding while the stream keeps arriving.  One runtime serves a
single 125 kHz channel and a regional multi-channel grid alike; the
channel front end is just the first stage of the same receive chain.

Stages (each instrumented through :mod:`repro.gateway.telemetry`):

1. **front end** -- with a :class:`repro.phy.params.ChannelPlan`, a
   :class:`repro.gateway.channelizer.PolyphaseChannelizer` splits each
   wideband chunk into the per-channel basebands (``channelize.push_s``);
   without one, the input already is channel 0's baseband and passes
   straight through.
2. **ingest** -- append each channel's samples to its own bounded
   :class:`repro.gateway.ring.SampleRing` (overflow evicts the oldest
   samples, counted as loss).
3. **detect** -- every channel is scanned once per spreading factor in
   ``sf_set`` by a :class:`StreamScanner`.  After each ingest, one
   coarse pass per PHY (:func:`repro.core.detection.decide_starts`)
   decides every start of every shard's unscanned span at 2x zero
   padding: the windows no shard has transformed yet are dechirped and
   FFT'd together, and every new start's accumulated statistics come from
   one reduction.  Only a shard whose coarse scores cross the threshold
   then runs :func:`repro.core.detection.sliding_packet_search`
   (``earliest=True``), which re-scores the starts around the crossing
   at 10x to pick the packet start; a quiet shard just moves on.  Each
   scanner keeps a :class:`repro.core.detection.ScanMemo` of both
   resolutions keyed by absolute sample index, so a window already
   transformed and a start already scored on an earlier chunk are
   reused, not recomputed (``detect.windows_*`` counters).  A detection
   whose frame tail has not arrived yet stays pending until the next
   chunk, which is how packets straddling chunk boundaries survive.
   Scanners sharing a ring publish release positions and the ring
   consumes their minimum, so an SF7 and an SF8 scanner multiplex one
   channel without stealing each other's samples.
4. **dispatch** -- cut the packet window
   (:data:`repro.core.cascade.WINDOW_LEAD_SYMBOLS` of lead for
   :func:`repro.core.detection.align_to_window_grid` to find the exact
   boundary) and submit it to the one shared
   :class:`repro.gateway.workers.DecodeWorkerPool`.  On the ``cascade``
   tier with a parallel executor, the pool runs Tier 0 right here: a
   window Tier 0 decodes clean and CRC-ok is recorded at once, so it
   never waits behind a full-Choir escalation.  Only escalations pass the
   admission gate, whose drop policy is the backpressure valve.  Jobs
   carry their shard's params and the key ``(channel, sf, shard_seq)``;
   decoding draws no randomness, so results are deterministic no matter
   how shards interleave or which executor runs the pool.
5. **decode** -- workers run the configured decode tier (for an
   escalation, the full pipeline, resuming the job Tier 0 declined) plus
   the LoRa FEC/CRC chain and report per-user payloads.

``Gateway.run(source)`` returns a :class:`GatewayReport` with counts,
throughput, per-stage latency percentiles, a per-shard (``ch{c}.sf{s}``)
recovery table and every decode outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import observe
from repro.core.cascade import DECODE_TIERS, DEFAULT_DECODE_TIER, WINDOW_LEAD_SYMBOLS
from repro.core.detection import ScanMemo, decide_starts, sliding_packet_search
from repro.gateway.channelizer import PolyphaseChannelizer
from repro.gateway.ring import SampleRing
from repro.gateway.sources import SampleSource
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.gateway.workers import DecodeJob, DecodeOutcome, DecodeWorkerPool
from repro.phy.packet import LoRaFramer
from repro.phy.params import ChannelPlan, LoRaParams
from repro.profile.manifest import write_profile_artifacts
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import ResourceAccountant, ResourceSummary
from repro.trace.recorder import TraceConfig, TraceRecorder


@dataclass(frozen=True)
class GatewayConfig:
    """Everything configurable about one gateway run.

    Parameters
    ----------
    params:
        PHY configuration of the traffic.  Without a ``plan`` it is the
        baseband the input is sampled at; with one, only its
        ``spreading_factor`` (the default ``sf_set``) and ``preamble_len``
        matter -- the plan fixes bandwidth and rate per channel.
    plan:
        Channel grid of a wideband input (must be critically stacked, the
        channelizer's requirement).  ``None`` means the input is channel
        0's baseband and no channelizer runs.
    sf_set:
        Spreading factors scanned on every channel; duplicates are
        dropped and the set is kept sorted.  Empty means
        ``(params.spreading_factor,)``.
    payload_len:
        Application payload bytes per packet; fixes the frame geometry
        the detector paces by and the decoder decodes.
    n_workers, executor, queue_capacity, drop_policy:
        Shape of the single decode pool all shards share; see
        :class:`repro.gateway.workers.DecodeWorkerPool`.  On the
        ``cascade`` tier, Tier 0 runs at dispatch on every executor, so
        ``queue_capacity`` and the drop policy apply only to the windows
        it escalates.
    detection_pfa:
        Search-level false-alarm probability per detection scan.
    max_users:
        Cap on SIC user estimates per decoded window; bounds the
        worst-case decode time on windows full of interference
        (None = uncapped).
    decode_tier:
        Which pipeline decodes each window: ``"cascade"`` (default,
        :data:`repro.core.cascade.DEFAULT_DECODE_TIER`: Tier-0 fast path
        with escalation to the full Choir pipeline), ``"full"`` (the
        full pipeline on every window, the reference path) or
        ``"fast"`` (Tier 0 only); see :mod:`repro.core.cascade`.
    seed:
        Run label only: recorded in the trace header and the run
        manifest.  Decoding draws no randomness, so it changes no result.
    trace:
        Attach a :class:`repro.trace.TraceRecorder` to the run: record
        every detection and decode outcome, and build provenance span
        trees per the sampling policy below.
    trace_sample_rate:
        Fraction of jobs whose span tree is retained unconditionally
        (deterministic by job key; 1.0 = every job).  The span tree of
        every job that fails CRC is retained whatever the rate, which
        keeps forensics complete while bounding trace volume on healthy
        traffic.
    profile:
        Attach a :class:`repro.profile.KernelProfiler` to the run:
        per-kernel wall/FFT/bytes accounting on every executor, reported
        on the :class:`GatewayReport` (``profile``) alongside a resource
        summary.
    profile_alloc:
        With ``profile``, additionally track allocations via
        ``tracemalloc`` and keep the top so-many sites (0 = off; this
        is the expensive knob, ~2-4x slowdown).
    """

    params: LoRaParams = field(default_factory=LoRaParams)
    plan: Optional[ChannelPlan] = None
    sf_set: Tuple[int, ...] = ()
    payload_len: int = 8
    n_workers: int = 1
    executor: str = "thread"
    queue_capacity: int = 8
    drop_policy: str = "newest"
    detection_pfa: float = 1e-3
    max_users: Optional[int] = 4
    decode_tier: str = DEFAULT_DECODE_TIER
    seed: Optional[int] = None
    trace: bool = False
    trace_sample_rate: float = 1.0
    profile: bool = False
    profile_alloc: int = 0

    def __post_init__(self) -> None:
        if self.decode_tier not in DECODE_TIERS:
            raise ValueError(
                f"decode_tier must be one of {DECODE_TIERS}, got {self.decode_tier!r}"
            )
        sf_set = self.sf_set or (self.params.spreading_factor,)
        object.__setattr__(self, "sf_set", tuple(sorted(set(sf_set))))

    @property
    def n_channels(self) -> int:
        """Channels the front end delivers (1 without a plan)."""
        return 1 if self.plan is None else self.plan.n_channels

    def shard_params(self, spreading_factor: int) -> LoRaParams:
        """Narrowband PHY params of every (channel, ``spreading_factor``) shard."""
        if self.plan is None:
            return replace(self.params, spreading_factor=spreading_factor)
        return self.plan.channel_params(
            spreading_factor, preamble_len=self.params.preamble_len
        )

    def n_data_symbols(self) -> int:
        """Data symbols per frame of the largest-SF shard."""
        framer = LoRaFramer(self.shard_params(self.sf_set[-1]))
        return framer.n_symbols_for_payload(self.payload_len)

    def frame_samples(self) -> int:
        """Samples per frame of the largest-SF shard: preamble plus data."""
        params = self.shard_params(self.sf_set[-1])
        return (params.preamble_len + self.n_data_symbols()) * params.samples_per_symbol


@dataclass
class GatewayReport:
    """Outcome of one gateway run: counts, rates, latencies, payloads.

    ``shards`` holds one row of counters per ``ch{c}.sf{s}`` shard label;
    the top-level counts are the cross-shard aggregate.
    """

    samples_in: int
    chunks_in: int
    samples_evicted: int
    packets_detected: int
    packets_dropped: int
    packets_decoded: int
    crc_failures: int
    decode_errors: int
    wall_s: float
    stream_s: float
    outcomes: List[DecodeOutcome]
    telemetry: Dict[str, Dict[str, Any]]
    shards: Optional[Dict[str, Dict[str, int]]] = None
    trace: Optional[TraceRecorder] = None
    profile: Optional[KernelProfiler] = None
    resources: Optional[ResourceSummary] = None

    # ------------------------------------------------------------------
    @property
    def decoded_payloads(self) -> List[bytes]:
        """CRC-verified payloads in stream order."""
        return [o.payload for o in self.outcomes if o.crc_ok and o.payload is not None]

    @property
    def packets_per_s(self) -> float:
        """CRC-verified packets per wall-clock second."""
        return self.packets_decoded / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def samples_per_s(self) -> float:
        """Ingested samples processed per wall-clock second."""
        return self.samples_in / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def realtime_factor(self) -> float:
        """Stream seconds processed per wall second (>1 keeps up live)."""
        return self.stream_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def decode_success_rate(self) -> float:
        """CRC-verified fraction of detected-and-decoded windows."""
        attempted = self.packets_detected - self.packets_dropped
        return self.packets_decoded / attempted if attempted > 0 else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of detected packets lost to backpressure."""
        return (
            self.packets_dropped / self.packets_detected
            if self.packets_detected > 0
            else 0.0
        )

    # ------------------------------------------------------------------
    def _stage_line(self, label: str, metric: str) -> str:
        state = self.telemetry.get(metric)
        if state is None or state.get("count", 0) == 0:
            return f"  {label:<12} (no events)"
        return (
            f"  {label:<12} n={state['count']:<5d}"
            f" p50={1e3 * state['p50_s']:7.2f}ms"
            f" p95={1e3 * state['p95_s']:7.2f}ms"
            f" max={1e3 * state['max_s']:7.2f}ms"
        )

    def _counter(self, name: str) -> int:
        state = self.telemetry.get(name)
        return int(state.get("value", 0)) if state is not None else 0

    def _tier_lines(self) -> List[str]:
        """The tiered-decode section: tier split plus escalation reasons.

        Empty (section omitted) on ``decode_tier="full"`` runs, which
        never touch the ``decode.tier0.*`` instruments.
        """
        attempts = self._counter("decode.tier0.attempts")
        if attempts == 0:
            return []
        escalated = self._counter("decode.escalated")
        lines = [
            "tiered decode",
            f"  tier0        {self._counter('decode.tier0.ok')} ok of"
            f" {attempts} windows"
            f" ({escalated} escalated,"
            f" {100.0 * escalated / attempts:.0f}% escalation rate)",
        ]
        prefix = "decode.escalated."
        reasons = {
            name[len(prefix):]: int(state.get("value", 0))
            for name, state in self.telemetry.items()
            if name.startswith(prefix)
        }
        if reasons:
            lines.append("  escalation reasons")
            width = max(len(reason) for reason in reasons)
            for reason in sorted(reasons):
                lines.append(f"    {reason.ljust(width)}  {reasons[reason]}")
        return lines

    def _profile_lines(self) -> List[str]:
        """The kernel-profile section; empty when the run did not profile."""
        if self.profile is None or not len(self.profile):
            return []
        stats = self.profile.stats()
        total = sum(stat["wall_s"] for stat in stats.values()) or 1.0
        rows = sorted(
            stats.items(), key=lambda kv: kv[1]["wall_s"], reverse=True
        )
        lines = [f"kernel profile ({1e3 * total:.1f}ms self time)"]
        for (name, shape), stat in rows[:8]:
            label = f"{name} {shape}".strip()
            lines.append(
                f"  {label:<28} {1e3 * stat['wall_s']:8.2f}ms"
                f" ({100.0 * stat['wall_s'] / total:4.1f}%)"
                f" x{stat['calls']}"
            )
        if len(rows) > 8:
            rest = sum(stat["wall_s"] for _, stat in rows[8:])
            lines.append(
                f"  {'(other kernels)':<28} {1e3 * rest:8.2f}ms"
                f" ({100.0 * rest / total:4.1f}%)"
            )
        return lines

    def summary(self) -> str:
        """Human-readable run summary (what ``repro gateway`` prints)."""
        lines = [
            "gateway run summary",
            f"  stream       {self.stream_s:.2f}s ({self.samples_in} samples,"
            f" {self.chunks_in} chunks)",
            f"  wall         {self.wall_s:.2f}s"
            f" ({self.realtime_factor:.2f}x realtime,"
            f" {self.samples_per_s / 1e6:.2f} Msamples/s)",
            f"  detected     {self.packets_detected} packets",
            f"  decoded      {self.packets_decoded} crc-ok"
            f" ({100.0 * self.decode_success_rate:.0f}% of attempted,"
            f" {self.packets_per_s:.2f} packets/s)",
            f"  crc-failed   {self.crc_failures}",
            f"  crc-trials   {self._counter('decode.crc_trials')} user frames checked,"
            f" {self._counter('decode.fec_contradicted')} crc-ok over an uncorrectable codeword",
            f"  dropped      {self.packets_dropped}"
            f" ({100.0 * self.drop_rate:.0f}% of detected)"
            + (f", {self.samples_evicted} samples evicted" if self.samples_evicted else ""),
        ]
        if self.decode_errors:
            lines.append(f"  errors       {self.decode_errors}")
        lines.extend(self._tier_lines())
        if self.shards:
            lines.append("per-shard recovery")
            for label in sorted(self.shards):
                row = self.shards[label]
                lines.append(
                    f"  {label:<12} detected={row.get('detected', 0)}"
                    f" decoded={row.get('decoded', 0)}"
                    f" crc-failed={row.get('crc_failed', 0)}"
                    f" dropped={row.get('dropped', 0)}"
                )
            lines.append(
                f"  {'all-shards':<12} detected={self.packets_detected}"
                f" decoded={self.packets_decoded}"
                f" crc-failed={self.crc_failures}"
                f" dropped={self.packets_dropped}"
            )
        lines.append("per-stage latency")
        lines.append(self._stage_line("ingest", "ingest.chunk_s"))
        if "channelize.push_s" in self.telemetry:
            lines.append(self._stage_line("channelize", "channelize.push_s"))
        lines.append(self._stage_line("detect", "detect.scan_s"))
        lines.append(
            f"  {'  windows':<12} transformed={self._counter('detect.windows_transformed')}"
            f" reused={self._counter('detect.windows_reused')}"
            f" refined={self._counter('detect.windows_refined')}"
        )
        lines.append(self._stage_line("queue-wait", "decode.queue_wait_s"))
        lines.append(self._stage_line("decode", "decode.decode_s"))
        if "decode.tier0.decode_s" in self.telemetry:
            lines.append(self._stage_line("  tier0", "decode.tier0.decode_s"))
        if "decode.full.decode_s" in self.telemetry and self._counter(
            "decode.tier0.attempts"
        ):
            lines.append(self._stage_line("  full", "decode.full.decode_s"))
        lines.extend(self._profile_lines())
        if self.resources is not None:
            res = self.resources
            lines.append(
                f"resources     cpu={res.cpu_s:.2f}s"
                f" ({100.0 * res.utilization:.0f}% of wall)"
                f" peak-rss={res.peak_rss_kb / 1024.0:.0f}MB"
                f" worker-peak-rss={res.worker_peak_rss_kb / 1024.0:.0f}MB"
                + (
                    f" alloc-peak={res.alloc_peak_kb / 1024.0:.1f}MB"
                    if res.alloc_peak_kb
                    else ""
                )
            )
        return "\n".join(lines)


class StreamScanner:
    """Detection-and-dispatch state machine for one shard of a sample ring.

    Owns the scan loop the gateway runs after every ingest: find the
    earliest packet in the unscanned span, cut its window (with lead/tail
    slack) and submit it to the decode pool, then skip past the frame.
    The scanner never consumes the ring itself; it advances
    ``release_pos`` -- the earliest absolute sample it may still need --
    and the ring's owner consumes up to the *minimum* release position of
    every scanner sharing the ring.  That indirection is what lets several
    SF scanners multiplex one channel's stream.

    Parameters
    ----------
    params:
        PHY configuration of this shard (sets the frame geometry the
        detector paces by, and the params every submitted job decodes
        with).
    payload_len:
        Frame geometry of the expected traffic.
    telemetry:
        Shared registry; scan instruments use the common ``detect.*``
        names plus the per-shard ``{label}.detect.packets``.
    detection_pfa:
        Search-level false-alarm probability per scan.
    channel:
        Channel this shard scans.  It fixes the shard's ``label``
        (``ch{c}.sf{s}``, the per-shard telemetry prefix) and its key
        prefix ``(channel, sf)``; each job's key appends the shard's own
        sequence number, so job identity is independent of cross-shard
        interleaving.
    trace_recorder:
        Optional :class:`repro.trace.TraceRecorder` receiving one
        detection record per dispatched job.
    """

    def __init__(
        self,
        params: LoRaParams,
        payload_len: int,
        telemetry: Telemetry,
        detection_pfa: float = 1e-3,
        channel: int = 0,
        trace_recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.params = params
        self.payload_len = payload_len
        self.telemetry = telemetry
        self.detection_pfa = detection_pfa
        self.channel = channel
        self.key_prefix = (channel, params.spreading_factor)
        self.label = shard_label(channel, params.spreading_factor)
        self.trace_recorder = trace_recorder
        framer = LoRaFramer(params)
        self.n_data_symbols = framer.n_symbols_for_payload(payload_len)
        n = params.samples_per_symbol
        self.frame_samples = (params.preamble_len + self.n_data_symbols) * n
        # Lead/tail slack around the detected window-granular start: the
        # window-cut contract's lead so align_to_window_grid can find the
        # true boundary even when a back-to-back predecessor's frame skip
        # ate into this packet's preamble, two symbols of tail for
        # timing-offset spill.
        self.lead = WINDOW_LEAD_SYMBOLS * n
        self.tail = 2 * n
        self.min_span = (params.preamble_len + 1) * n
        self.scan_pos = 0  # absolute index of the next unscanned sample
        self.release_pos = 0  # earliest sample this scanner may still need
        self.detected = 0
        self.shard_seq = 0  # per-shard job sequence number (job key)
        self._memo = ScanMemo()  # window spectra carried across scans
        # The shard's PHY group, and the coarse scores it decided for this
        # shard's unscanned span, which this shard's scan consumes.
        self.coarse_pass: Optional[CoarsePass] = None
        self._decided: Optional[np.ndarray] = None

    def coarse_stream(
        self, ring: SampleRing
    ) -> Optional[Tuple[ScanMemo, Callable[[int, int], np.ndarray], int, int]]:
        """This shard's :func:`decide_starts` stream over the unscanned span.

        ``None`` when the span is shorter than a preamble plus a window.
        """
        self.scan_pos = max(self.scan_pos, ring.start)
        available = ring.end - self.scan_pos
        if available < self.min_span:
            return None
        n_starts = available // self.params.samples_per_symbol - self.params.preamble_len + 1
        return self._memo, ring.view, self.scan_pos, n_starts

    def _release(self, pos: int) -> None:
        if pos > self.release_pos:
            self.release_pos = pos

    def _make_job(self, ring: SampleRing, start: int, window_end: int,
                  job_id: int, score: float) -> DecodeJob:
        window_start = max(start - self.lead, ring.start)
        window_end = min(window_end, ring.end)
        return DecodeJob(
            job_id=job_id,
            samples=ring.view(window_start, window_end - window_start),
            n_data_symbols=self.n_data_symbols,
            payload_len=self.payload_len,
            start_sample=window_start,
            detection_score=score,
            created_at=clock(),
            params=self.params,
            key=self.key_prefix + (self.shard_seq,),
            channel=self.channel,
        )

    def scan(
        self,
        ring: SampleRing,
        pool: DecodeWorkerPool,
        next_job_id: int,
        final: bool = False,
    ) -> int:
        """Detect and dispatch every complete packet in the unscanned span.

        Returns the next free job id.  A detection whose frame has not
        fully arrived is left unconsumed (``scan_pos`` stays put) so the
        next chunk completes it -- unless ``final``, in which case the
        truncated window is dispatched anyway (the decoder may still
        salvage it if only slack is missing).
        """
        params = self.params
        n = params.samples_per_symbol
        telemetry = self.telemetry
        frame = self.frame_samples
        memo = self._memo
        if self.coarse_pass is not None:
            self.coarse_pass.run(telemetry)
        while True:
            stream = self.coarse_stream(ring)
            if stream is None:
                break
            scores, self._decided = self._decided, None
            if scores is None:
                with telemetry.timer("detect.scan_s"):
                    (scores,) = decide_starts(params, [stream], self.detection_pfa)
            transformed, reused = memo.windows_transformed, memo.windows_reused
            result = None
            if not np.all(scores < 1.0):
                # A coarse crossing: the search re-scores it at 10x on the
                # primed memo and picks the start (or passes it over).
                segment = ring.view(self.scan_pos, ring.end - self.scan_pos)
                with telemetry.timer("detect.scan_s"):
                    result = sliding_packet_search(
                        params,
                        segment,
                        pfa=self.detection_pfa,
                        earliest=True,
                        memo=memo,
                        origin=self.scan_pos,
                    )
            telemetry.counter("detect.scans").inc()
            telemetry.counter("detect.windows_transformed").inc(transformed)
            telemetry.counter("detect.windows_reused").inc(reused)
            telemetry.counter("detect.windows_refined").inc(
                0 if result is None else memo.windows_refined
            )
            if result is None or not result.detected:
                # Keep a preamble's worth of overlap so a packet whose
                # head just arrived is still detectable next scan.
                self.scan_pos = max(self.scan_pos, ring.end - self.min_span)
                self._release(self.scan_pos - self.lead)
                break
            start = self.scan_pos + result.start_window * n
            window_end = start + frame + self.tail
            if window_end > ring.end and not final:
                # Straddles the chunk boundary: wait for the tail.
                self._release(max(start - self.lead, ring.start))
                break
            job = self._make_job(ring, start, window_end, next_job_id, result.score)
            self.detected += 1
            next_job_id += 1
            self.shard_seq += 1
            telemetry.counter("detect.packets").inc()
            telemetry.counter(f"{self.label}.detect.packets").inc()
            if self.trace_recorder is not None:
                self.trace_recorder.record_detection(
                    job_id=job.job_id,
                    key=job.key,
                    channel=self.channel,
                    spreading_factor=params.spreading_factor,
                    start_sample=start,
                    score=float(result.score),
                    label=self.label,
                )
            pool.submit(job)
            # The detected start is window-granular and may sit up to one
            # window before the true (mid-window) packet start; skip one
            # extra symbol past the nominal frame end so the leftover
            # partial chirp cannot re-trigger detection.  A back-to-back
            # successor only loses a fraction of its first preamble
            # window, which the accumulation detector absorbs.
            self.scan_pos = start + frame + n
            self._release(self.scan_pos - self.lead)
            if min(window_end, ring.end) >= ring.end and final:
                break
        return next_job_id


class CoarsePass:
    """The shards of one PHY, whose coarse detection decisions are made together.

    Shards of one PHY (same params and false-alarm rate, on any channel)
    share one :func:`decide_starts` call per ingest.  The gateway marks
    the pass :meth:`due` after every ingest, and the first of its
    scanners to scan runs it for all of them, so its time counts as
    scanning.  Each scanner keeps its scores for its own scan, which
    searches only if a start crossed.
    """

    def __init__(self, shards: Sequence[Tuple[StreamScanner, SampleRing]]) -> None:
        self.shards = shards
        self._due = False
        for scanner, _ in shards:
            scanner.coarse_pass = self

    def due(self) -> None:
        """New samples arrived: the next scan decides for every shard."""
        self._due = True

    def run(self, telemetry: Telemetry) -> None:
        """Decide every shard's unscanned span in one pass, once per :meth:`due`."""
        if not self._due:
            return
        self._due = False
        members = []
        for scanner, ring in self.shards:
            stream = scanner.coarse_stream(ring)
            if stream is not None:
                members.append((scanner, stream))
        if not members:
            return
        scanner = members[0][0]
        with telemetry.timer("detect.scan_s"):
            decided = decide_starts(
                scanner.params, [stream for _, stream in members], scanner.detection_pfa
            )
        for (scanner, _), scores in zip(members, decided):
            scanner._decided = scores


class Gateway:
    """Streaming base-station runtime around one shared decode worker pool.

    Construct with a :class:`GatewayConfig`, then :meth:`run` it over any
    :class:`repro.gateway.sources.SampleSource` -- channel 0's baseband,
    or a wideband stream covering ``config.plan`` (for synthetic traffic,
    a :class:`repro.gateway.sources.SyntheticTrafficSource` built with the
    same plan).  A :class:`Telemetry` registry is created per instance
    unless one is injected (e.g. to share it with the traffic source);
    every :meth:`run` of one instance records into the same registry.
    The trace recorder and kernel profiler come from the config alone
    (``config.trace`` / ``config.profile``) and are made per instance
    too.
    ``on_outcome`` streams every decode outcome to the caller live (the
    network-server uplink tap); see
    :class:`repro.gateway.workers.DecodeWorkerPool` for its threading
    contract.  :meth:`write_artifacts` writes a finished run's files.
    """

    def __init__(
        self,
        config: GatewayConfig,
        telemetry: Optional[Telemetry] = None,
        on_outcome: Optional[Callable[[DecodeOutcome], None]] = None,
    ) -> None:
        self.config = config
        self.on_outcome = on_outcome
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.trace_recorder: Optional[TraceRecorder] = (
            TraceRecorder(TraceConfig(sample_rate=config.trace_sample_rate))
            if config.trace
            else None
        )
        self.profiler: Optional[KernelProfiler] = (
            KernelProfiler() if config.profile else None
        )
        # Four frames of the largest SF: room for one packet mid-decode-cut,
        # one arriving, and scan overlap, without unbounded growth.
        self._ring_capacity = 4 * config.frame_samples()

    # ------------------------------------------------------------------
    def run(self, source: SampleSource) -> GatewayReport:
        """Consume ``source`` to exhaustion and report what was decoded."""
        config = self.config
        telemetry = self.telemetry
        recorder = self.trace_recorder
        if recorder is not None:
            recorder.set_header(
                run_kind="gateway",
                executor=config.executor,
                n_workers=config.n_workers,
                seed=config.seed,
                n_channels=config.n_channels,
                sf_set=list(config.sf_set),
                payload_len=config.payload_len,
                decode_tier=config.decode_tier,
                sample_rate=recorder.config.sample_rate,
            )
        channelizer = (
            None if config.plan is None else PolyphaseChannelizer(config.plan)
        )
        pool = DecodeWorkerPool(
            n_workers=config.n_workers,
            executor=config.executor,
            queue_capacity=config.queue_capacity,
            drop_policy=config.drop_policy,
            max_users=config.max_users,
            decode_tier=config.decode_tier,
            telemetry=telemetry,
            trace_recorder=recorder,
            profiler=self.profiler,
            on_outcome=self.on_outcome,
        )
        rings = [SampleRing(self._ring_capacity) for _ in range(config.n_channels)]
        scanners = [
            [
                StreamScanner(
                    config.shard_params(sf),
                    config.payload_len,
                    telemetry,
                    detection_pfa=config.detection_pfa,
                    channel=channel,
                    trace_recorder=recorder,
                )
                for sf in config.sf_set
            ]
            for channel in range(config.n_channels)
        ]
        samples_in = 0
        chunks_in = 0
        evicted = 0
        next_job_id = 0
        accountant: Optional[ResourceAccountant] = None
        if self.profiler is not None:
            accountant = ResourceAccountant(
                alloc_top_n=config.profile_alloc
            )
            accountant.start()
        started = clock()

        def buffer(bands: Sequence[np.ndarray]) -> None:
            nonlocal evicted
            for channel, ring in enumerate(rings):
                narrow = bands[channel]
                if narrow.size:
                    evicted += ring.append(narrow)
                    telemetry.counter(f"ch{channel}.ingest.samples").inc(narrow.size)
                if self.profiler is not None:
                    telemetry.gauge("ring.occupancy").set(
                        len(ring) / self._ring_capacity
                    )

        groups: Dict[Tuple[LoRaParams, float], List[Tuple[StreamScanner, SampleRing]]] = {}
        for ring, channel_scanners in zip(rings, scanners):
            for scanner in channel_scanners:
                key = (scanner.params, scanner.detection_pfa)
                groups.setdefault(key, []).append((scanner, ring))
        passes = [CoarsePass(shards) for shards in groups.values()]

        def scan(final: bool = False) -> None:
            nonlocal next_job_id
            for coarse_pass in passes:
                coarse_pass.due()
            for channel, ring in enumerate(rings):
                for scanner in scanners[channel]:
                    next_job_id = scanner.scan(ring, pool, next_job_id, final=final)
                if not final:
                    ring.consume(
                        min(scanner.release_pos for scanner in scanners[channel])
                    )

        # Every exit path drains and closes the pool (its workers start
        # at the first submit, in here), so a source that raises
        # mid-stream leaves no worker process running.
        try:
            # The run-level observation covers work done in the ingest loop
            # itself (channelizer pushes, detection scans); per-job decode
            # work runs under job-local scopes merged by the pool, so nothing
            # is counted twice.
            with observe.scope(profiler=self.profiler):
                for chunk in source.chunks():
                    if channelizer is None:
                        bands: Sequence[np.ndarray] = (chunk,)
                    else:
                        with telemetry.timer("channelize.push_s"):
                            bands = channelizer.push(chunk)
                    with telemetry.timer("ingest.chunk_s"):
                        samples_in += len(chunk)
                        chunks_in += 1
                        telemetry.counter("ingest.samples").inc(len(chunk))
                        buffer(bands)
                    scan()
                if channelizer is not None:
                    # Drain the filter tail before the final scans.
                    with telemetry.timer("channelize.push_s"):
                        tail = channelizer.flush()
                    buffer(tail)
                    scan()
                # End of stream: final-scan every shard so truncated trailing
                # windows still get a decode attempt.
                scan(final=True)
        finally:
            outcomes = pool.close()
        wall = clock() - started
        # A streaming source knows its truth only once it is consumed.
        ground_truth = getattr(source, "ground_truth", None)
        if recorder is not None and callable(ground_truth):
            recorder.set_ground_truth(ground_truth())
        resources: Optional[ResourceSummary] = None
        if accountant is not None:
            resources = accountant.stop()
        shards: Dict[str, Dict[str, int]] = {
            scanner.label: {
                "detected": scanner.detected,
                "decoded": 0,
                "crc_failed": 0,
                "dropped": telemetry.counter(f"{scanner.label}.dispatch.dropped").value,
            }
            for channel_scanners in scanners
            for scanner in channel_scanners
        }
        for outcome in outcomes:
            if outcome.spreading_factor is None:
                continue
            row = shards.get(shard_label(outcome.channel, outcome.spreading_factor))
            if row is None:
                continue
            if outcome.crc_ok:
                row["decoded"] += 1
            elif outcome.error is None:
                row["crc_failed"] += 1
        sample_rate = (
            config.params.sample_rate
            if config.plan is None
            else config.plan.wideband_rate
        )
        return GatewayReport(
            samples_in=samples_in,
            chunks_in=chunks_in,
            samples_evicted=evicted,
            packets_detected=sum(row["detected"] for row in shards.values()),
            packets_dropped=pool.dropped,
            packets_decoded=sum(1 for o in outcomes if o.crc_ok),
            crc_failures=sum(1 for o in outcomes if not o.crc_ok and o.error is None),
            decode_errors=sum(1 for o in outcomes if o.error is not None),
            wall_s=wall,
            stream_s=samples_in / sample_rate,
            outcomes=outcomes,
            telemetry=telemetry.snapshot(),
            shards=shards,
            trace=recorder,
            profile=self.profiler,
            resources=resources,
        )

    # ------------------------------------------------------------------
    def write_artifacts(
        self,
        report: GatewayReport,
        kind: str,
        config: Mapping[str, Any],
        telemetry_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        trace_out: Optional[str] = None,
        profile_out: Optional[str] = None,
        stacks_out: Optional[str] = None,
    ) -> None:
        """Write a finished run's files; a ``None`` path writes nothing.

        Telemetry as JSON lines and Prometheus text, the trace (with the
        kernel flame strip), and via
        :func:`repro.profile.write_profile_artifacts` a ``kind`` manifest
        (``config``, report digest, ``gateway.*`` metrics) plus stacks.
        """
        if telemetry_out:
            self.telemetry.write_jsonl(telemetry_out)
            print(f"telemetry written to {telemetry_out}")
        if metrics_out:
            self.telemetry.write_prometheus(metrics_out)
            print(f"metrics written to {metrics_out}")
        if trace_out and report.trace is not None:
            from repro.trace import write_trace

            write_trace(report.trace, trace_out, kernel_profile=report.profile)
            print(
                f"trace written to {trace_out}"
                f" ({len(report.trace)} packet trace(s);"
                f" inspect with `python -m repro forensics {trace_out}`)"
            )
        if profile_out or stacks_out:
            from repro.scenario.build import report_digest  # imports this module

            write_profile_artifacts(
                kind,
                config,
                profile_out=profile_out,
                stacks_out=stacks_out,
                seed=self.config.seed,
                digest=report_digest(report),
                telemetry=self.telemetry,
                profiler=report.profile,
                resources=report.resources,
                extra_metrics={
                    "gateway.realtime_factor": report.realtime_factor,
                    "gateway.wall_s": report.wall_s,
                    "gateway.packets_decoded": float(report.packets_decoded),
                },
            )
