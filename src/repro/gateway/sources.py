"""Continuous IQ sample sources for the streaming gateway.

Two producers of the chunked baseband stream a base station sees:

* :class:`SyntheticTrafficSource` -- renders a node population's traffic
  into one continuous noisy stream.  Arrivals follow the MAC simulator's
  model (:class:`repro.mac.NodeConfig`: periodic with ``period_s``, or
  saturated back-to-back when ``None``); each node keeps a persistent
  :class:`repro.hardware.LoRaRadio`, so its crystal offset is stable
  across packets exactly as in :class:`repro.mac.waveform_phy.WaveformPhy`.
  Ground truth (payload, start sample, node) is exposed for end-to-end
  verification.
* :class:`IqFileSource` -- replays a capture from disk (``.npy`` complex
  array, or raw interleaved complex64) in chunks, for decoding recorded
  traffic offline through the same pipeline.

Sources yield chunks of a configurable size; the gateway never sees more
than one chunk at a time, which is what makes the runtime streaming
rather than batch.

The synthetic source renders *streaming-windowed*: an event heap over
the per-node frame schedules pops only the frames that overlap the chunk
being rendered, radios exist only while their node is rendering (board
state -- oscillator, timing, RNG stream position -- is suspended into a
few-hundred-byte dormant record between frames), and finished waveforms
are dropped as the stream head passes them.  Peak memory is
O(concurrently-airborne frames), not O(population), which is what makes
10^4-node capacity campaigns and soak runs possible.  The stream is fixed
by the seed and chunk size alone (pinned by recorded digests): phases
are drawn per node in population order, payloads in global
``(start_sample, node_id)`` arrival order, and per-node radio streams are
position-preserved across suspend/resume.  Ground truth therefore grows
as the stream is consumed: ``transmitted`` is complete only once
``chunks()`` is exhausted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.channel.noise import awgn
from repro.gateway.channelizer import upconvert_to_channel
from repro.gateway.telemetry import Telemetry
from repro.hardware.clock import TimingModel
from repro.hardware.oscillator import OscillatorModel
from repro.hardware.radio import LoRaRadio
from repro.mac.simulator import NodeConfig
from repro.phy.packet import LoRaFramer
from repro.phy.params import ChannelPlan, LoRaParams
from repro.utils import RngLike, as_seed_sequence, db_to_linear, derive_rng

#: Default chunk size in samples (~33 ms at 125 kHz).
DEFAULT_CHUNK_SAMPLES = 4096


class SampleSource(Protocol):
    """Anything that can feed the gateway a chunked IQ stream."""

    params: LoRaParams

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield consecutive complex-baseband chunks until exhausted."""
        ...


@dataclass(frozen=True)
class TransmittedPacket:
    """Ground truth for one synthesized uplink packet.

    ``start_sample`` is in *stream* units: narrowband samples for a
    single-channel source, wideband samples when the source renders onto a
    :class:`repro.phy.params.ChannelPlan`.  ``channel`` and
    ``spreading_factor`` identify the shard a multi-channel run should
    recover the packet on (``spreading_factor`` is ``None`` when the
    shared source params apply).
    """

    node_id: int
    payload: bytes
    start_sample: int
    n_data_symbols: int
    snr_db: float
    channel: int = 0
    spreading_factor: int | None = None

    def frame_samples(self, params: LoRaParams) -> int:
        """Nominal frame length in samples (preamble + data)."""
        return (params.preamble_len + self.n_data_symbols) * params.samples_per_symbol


@dataclass(frozen=True)
class _NodeSchedule:
    """One node's arithmetic-progression frame schedule, in stream units.

    ``tail`` is the fit bound the legacy scheduler charged past the start
    (frame plus one guard symbol, scaled to stream units), so a frame is
    scheduled only while ``start + tail <= duration_samples``.
    """

    index: int
    node_id: int
    snr_db: float
    channel: int
    spreading_factor: Optional[int]
    n_symbols: int
    first_start: int
    step: int
    tail: int


@dataclass
class _DormantRadio:
    """Suspended board state of one node between frames.

    Holds exactly what :class:`repro.hardware.LoRaRadio` cannot re-derive:
    the sampled hardware models and the position of the per-packet draw
    stream, so a resumed radio renders the node's next frame with the
    same draws the persistent radio would have used.
    """

    oscillator: OscillatorModel
    timing: TimingModel
    rng_state: Dict[str, object]


class _TrafficScheduler:
    """Event heap over the per-node schedules, popping frames in air order.

    Payload bytes are drawn *at pop time* from the shared schedule RNG.
    Pops happen in global ``(start_sample, node_id, population_index)``
    order, so the draw sequence -- and with it every emitted packet --
    depends only on the schedule, never on chunk geometry.
    """

    def __init__(
        self,
        schedules: List[_NodeSchedule],
        duration_samples: int,
        schedule_rng: np.random.Generator,
        payload_len: int,
        payload_fn: Optional[Callable[[int, int], bytes]],
    ) -> None:
        self._schedules = schedules
        self._duration = duration_samples
        self._rng = schedule_rng
        self._payload_len = payload_len
        self._payload_fn = payload_fn
        self._seq_by_node: Dict[int, int] = {}
        self.n_scheduled = 0
        self._heap: List[Tuple[int, int, int]] = []
        for sched in schedules:
            if sched.first_start + sched.tail <= duration_samples:
                heapq.heappush(
                    self._heap, (sched.first_start, sched.node_id, sched.index)
                )

    def _payload(self, node_id: int) -> bytes:
        """One packet's payload: the custom function, or the random draw."""
        if self._payload_fn is None:
            return bytes(
                self._rng.integers(0, 256, self._payload_len, dtype=np.uint8)
            )
        seq = self._seq_by_node.get(node_id, 0)
        self._seq_by_node[node_id] = seq + 1
        payload = self._payload_fn(node_id, seq)
        if len(payload) != self._payload_len:
            raise ValueError(
                f"payload_fn returned {len(payload)} bytes for node "
                f"{node_id}, expected payload_len={self._payload_len}"
            )
        return payload

    @property
    def exhausted(self) -> bool:
        """True once every fitting frame has been popped."""
        return not self._heap

    def pop_until(self, end_sample: int) -> Iterator[TransmittedPacket]:
        """Yield (in air order) every scheduled frame starting before ``end``."""
        while self._heap and self._heap[0][0] < end_sample:
            start, node_id, index = heapq.heappop(self._heap)
            sched = self._schedules[index]
            nxt = start + sched.step
            if nxt + sched.tail <= self._duration:
                heapq.heappush(self._heap, (nxt, node_id, index))
            self.n_scheduled += 1
            yield TransmittedPacket(
                node_id=node_id,
                payload=self._payload(node_id),
                start_sample=start,
                n_data_symbols=sched.n_symbols,
                snr_db=sched.snr_db,
                channel=sched.channel,
                spreading_factor=sched.spreading_factor,
            )


def round_robin_plan(n_channels: int, sf_set: Sequence[int]) -> Optional[ChannelPlan]:
    """EU868-style once traffic spans several channels or SFs, else ``None``."""
    if n_channels > 1 or len(sf_set) > 1:
        return ChannelPlan.eu868_style(n_channels)
    return None


class SyntheticTrafficSource:
    """Continuous base-station stream synthesized from a node population.

    Parameters
    ----------
    params:
        Shared PHY configuration.
    nodes:
        Traffic/link configuration per node (``period_s=None`` means
        saturated: the node transmits back-to-back frames).  Payload
        geometry comes from ``payload_len``, which supersedes
        ``NodeConfig.payload_bits`` -- the streaming gateway decodes a
        fixed frame length, as the paper's deployments do.
    duration_s:
        Stream duration; packets that would not finish in time are not
        scheduled.
    payload_len:
        Application payload bytes per packet.
    chunk_samples:
        Samples per yielded chunk.
    noise_power:
        AWGN power (1.0 makes ``snr_db`` literal, as in
        :class:`repro.channel.CollisionChannel`); 0 disables noise for
        deterministic unit tests.  In multi-channel mode the noise is
        added at the wideband rate and per-node amplitudes are scaled so
        ``snr_db`` stays literal *per channel* after the analysis bank.
    plan:
        ``None`` (the default) renders the legacy single-channel
        narrowband stream.  With a :class:`repro.phy.params.ChannelPlan`
        the source becomes *wideband*: each node's frames are rendered at
        its own spreading factor (``NodeConfig.spreading_factor``, falling
        back to ``params``) and upconverted onto its
        ``NodeConfig.channel``, and chunks stream at
        ``plan.wideband_rate``.
    rng:
        Seed for everything: schedule phases, payload bytes, radio
        imperfections, and noise are all derived sub-streams, so one seed
        reproduces the stream bit-for-bit (for a fixed chunk size -- the
        rendered signal is chunk-invariant, but noise is drawn per chunk).
    payload_fn:
        Optional ``(node_id, packet_seq) -> bytes`` supplying each
        packet's payload instead of the random draw (``packet_seq``
        counts that node's packets from 0 in schedule order).  This is
        how the network-server integration stamps LoRaWAN-style
        devaddr/fcnt headers onto synthesized uplinks.  Returned bytes
        must be exactly ``payload_len`` long.  The default (``None``)
        leaves the legacy random-payload draw sequence untouched.
    record_ground_truth:
        ``False`` stops ``transmitted`` from accumulating per-packet
        truth rows (``packets_scheduled`` still counts), for soak runs
        where even metadata must stay bounded.
    max_active_nodes:
        Memory guard: hard cap on concurrently resident
        rendered frames.  Exceeding it raises ``RuntimeError`` instead of
        quietly growing -- a saturated mis-configuration (thousands of
        overlapping frames) fails fast rather than OOMing the host.
    telemetry:
        Optional :class:`repro.gateway.telemetry.Telemetry` registry;
        the source publishes ``source.active_frames`` (current resident
        rendered frames), ``source.active_peak`` (its high-water mark)
        and the ``source.packets`` counter into it.
    """

    def __init__(
        self,
        params: LoRaParams,
        nodes: List[NodeConfig],
        duration_s: float,
        payload_len: int = 8,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        noise_power: float = 1.0,
        plan: ChannelPlan | None = None,
        rng: RngLike = None,
        payload_fn: Optional[Callable[[int, int], bytes]] = None,
        record_ground_truth: bool = True,
        max_active_nodes: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if chunk_samples <= 0:
            raise ValueError(f"chunk_samples must be positive, got {chunk_samples}")
        if max_active_nodes is not None and max_active_nodes < 1:
            raise ValueError(
                f"max_active_nodes must be positive, got {max_active_nodes}"
            )
        self.params = params
        self.plan = plan
        self.payload_len = payload_len
        self.payload_fn = payload_fn
        self.chunk_samples = int(chunk_samples)
        self.noise_power = noise_power
        self._record_ground_truth = record_ground_truth
        self._max_active = max_active_nodes
        self._telemetry = telemetry
        framer = LoRaFramer(params)
        self.n_data_symbols = framer.n_symbols_for_payload(payload_len)
        seq = as_seed_sequence(rng)
        self._seed_seq = seq
        schedule_rng = derive_rng(seq, 0)
        self._noise_rng = derive_rng(seq, 1)
        if plan is None:
            for cfg in nodes:
                if cfg.channel != 0 or cfg.spreading_factor is not None:
                    raise ValueError(
                        "node channel/spreading_factor overrides require a "
                        f"ChannelPlan (node {cfg.node_id})"
                    )
            self.duration_samples = int(round(duration_s * params.sample_rate))
        else:
            for cfg in nodes:
                plan.validate_channel(cfg.channel)
            self.duration_samples = int(round(duration_s * plan.wideband_rate))
        self._scheduler = _TrafficScheduler(
            self._schedules(nodes, schedule_rng),
            self.duration_samples,
            schedule_rng,
            payload_len,
            payload_fn,
        )
        #: Rendered frames currently overlapping the stream head, keyed by
        #: admission order: ``{seq: (start_sample, waveform)}``.
        self._rendered: Dict[int, Tuple[int, np.ndarray]] = {}
        self._render_seq = 0
        self._dormant: Dict[int, _DormantRadio] = {}
        #: High-water mark of concurrently resident rendered frames.
        self.active_peak = 0
        #: Ground truth of every frame scheduled so far, in air order.
        self.transmitted: List[TransmittedPacket] = []

    @classmethod
    def round_robin(
        cls,
        sf_set: Sequence[int],
        n_nodes: int,
        duration_s: float,
        *,
        n_channels: int,
        snr_db: float,
        period_s: Optional[float],
        payload_len: int,
        rng: RngLike = None,
    ) -> "SyntheticTrafficSource":
        """Node ``i`` on channel ``i % n_channels`` at SF ``sf_set[i % len(sf_set)]``.

        Every node has the same SNR and period; the plan is
        :func:`round_robin_plan`'s.  The traffic of ``repro gateway`` and
        ``tools/bench_report.py``.
        """
        plan = round_robin_plan(n_channels, sf_set)
        nodes = [
            NodeConfig(
                node_id=i,
                snr_db=snr_db,
                period_s=period_s,
                channel=i % n_channels,
                spreading_factor=None if plan is None else sf_set[i % len(sf_set)],
            )
            for i in range(n_nodes)
        ]
        return cls(
            LoRaParams(spreading_factor=sf_set[0]),
            nodes,
            duration_s=duration_s,
            payload_len=payload_len,
            plan=plan,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedules(
        self, nodes: List[NodeConfig], schedule_rng: np.random.Generator
    ) -> List[_NodeSchedule]:
        """Per-node frame schedules; the RNG draw order is frozen (see tests).

        Scheduling runs in narrowband units.  With a plan, every node
        renders at its own spreading factor on the plan's grid and its
        starts scale by the oversample factor, so each lands on the
        channelizer's decimation grid and the through-bank signal is a
        pure integer delay of the narrowband render; without one, every
        node renders at ``params`` and the factor is 1.
        """
        plan = self.plan
        m = 1 if plan is None else plan.oversample_factor
        self._node_params: Dict[int, LoRaParams] = {}
        self._node_symbols: Dict[int, int] = {}
        for cfg in nodes:
            node_params = self.params
            if plan is not None:
                sf = (
                    cfg.spreading_factor
                    if cfg.spreading_factor is not None
                    else self.params.spreading_factor
                )
                node_params = plan.channel_params(
                    sf, preamble_len=self.params.preamble_len
                )
            self._node_params[cfg.node_id] = node_params
            self._node_symbols[cfg.node_id] = LoRaFramer(
                node_params
            ).n_symbols_for_payload(self.payload_len)
        schedules: List[_NodeSchedule] = []
        for index, cfg in enumerate(nodes):
            node_params = self._node_params[cfg.node_id]
            n_symbols = self._node_symbols[cfg.node_id]
            n = node_params.samples_per_symbol
            frame = (node_params.preamble_len + n_symbols) * n
            if cfg.period_s is None:
                # Saturated: back-to-back frames separated by one guard
                # symbol (the beacon-slot overhead the MAC model charges).
                step = frame + n
            else:
                step = max(int(round(cfg.period_s * node_params.sample_rate)), 1)
            phase = int(schedule_rng.integers(0, step))
            schedules.append(
                _NodeSchedule(
                    index=index,
                    node_id=cfg.node_id,
                    snr_db=cfg.snr_db,
                    channel=cfg.channel,
                    spreading_factor=(
                        None if plan is None else node_params.spreading_factor
                    ),
                    n_symbols=n_symbols,
                    first_start=phase * m,
                    step=step * m,
                    tail=(frame + n) * m,
                )
            )
        return schedules

    # ------------------------------------------------------------------
    # Radio lifecycle
    # ------------------------------------------------------------------
    def _acquire_radio(self, node_id: int) -> LoRaRadio:
        """The node's radio: resumed from dormancy, or fresh on first use.

        A fresh radio draws its board from the node's dedicated derived
        RNG stream.
        """
        dormant = self._dormant.pop(node_id, None)
        if dormant is None:
            return LoRaRadio(
                self._node_params[node_id],
                node_id=node_id,
                rng=derive_rng(self._seed_seq, 2, node_id),
            )
        # ensure_rng cannot restore a saved bit-generator state; the
        # seed below is discarded the moment .state is assigned
        resumed = np.random.Generator(np.random.PCG64(0))  # noqa: R001
        resumed.bit_generator.state = dormant.rng_state
        return LoRaRadio(
            self._node_params[node_id],
            oscillator=dormant.oscillator,
            timing=dormant.timing,
            node_id=node_id,
            rng=resumed,
        )

    def _suspend_radio(self, node_id: int, radio: LoRaRadio) -> None:
        """Park a radio between frames: keep only the resumable board state."""
        self._dormant[node_id] = _DormantRadio(
            oscillator=radio.oscillator,
            timing=radio.timing,
            rng_state=radio.rng_state,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _waveform_for(self, packet: TransmittedPacket) -> np.ndarray:
        """Render one frame through the node's (possibly resumed) radio."""
        radio = self._acquire_radio(packet.node_id)
        snr_lin = db_to_linear(packet.snr_db) * max(self.noise_power, 1e-30)
        if self.plan is None:
            amplitude = float(np.sqrt(snr_lin))
            waveform, _, _ = radio.transmit_payload(
                packet.payload, amplitude=amplitude
            )
        else:
            # Per-channel noise after the analysis bank is roughly
            # noise_power / M, so scale the narrowband amplitude to
            # keep snr_db literal on the channelized stream.
            amplitude = float(np.sqrt(snr_lin / self.plan.oversample_factor))
            narrowband, _, _ = radio.transmit_payload(
                packet.payload, amplitude=amplitude
            )
            waveform = upconvert_to_channel(
                narrowband,
                self.plan,
                packet.channel,
                start_sample=packet.start_sample,
            )
        self._suspend_radio(packet.node_id, radio)
        return waveform

    def _admit(self, packet: TransmittedPacket) -> None:
        """Render ``packet`` into the resident set, guarding its size."""
        if self._max_active is not None and len(self._rendered) >= self._max_active:
            raise RuntimeError(
                f"source active-set overflow: admitting a frame for node "
                f"{packet.node_id} would exceed max_active_nodes="
                f"{self._max_active} concurrently rendered frames "
                f"({len(self._rendered)} resident); the offered load is "
                "far past the configured concurrency bound"
            )
        self._rendered[self._render_seq] = (
            packet.start_sample,
            self._waveform_for(packet),
        )
        self._render_seq += 1
        active = len(self._rendered)
        if active > self.active_peak:
            self.active_peak = active
        if self._telemetry is not None:
            self._telemetry.counter("source.packets").inc()
            self._telemetry.gauge("source.active_frames").set(active)
            self._telemetry.gauge("source.active_peak").set(self.active_peak)

    def _render_upto(self, end_sample: int) -> None:
        """Render (in schedule order) every packet starting before ``end``.

        Rendering order is fixed by the schedule, not by chunk geometry,
        so per-radio random phase draws are reproducible for any chunk
        size.
        """
        for packet in self._scheduler.pop_until(end_sample):
            if self._record_ground_truth:
                self.transmitted.append(packet)
            self._admit(packet)

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield the noisy stream chunk by chunk."""
        for a in range(0, self.duration_samples, self.chunk_samples):
            b = min(a + self.chunk_samples, self.duration_samples)
            # Retire frames fully behind the stream head *before* admitting
            # new ones, so the active set (and its guard) reflects live
            # overlap, not chunk-boundary bookkeeping.
            for key, (start, waveform) in list(self._rendered.items()):
                if start + waveform.size <= a:
                    del self._rendered[key]
            self._render_upto(b)
            if self._telemetry is not None:
                self._telemetry.gauge("source.active_frames").set(
                    len(self._rendered)
                )
            chunk = np.zeros(b - a, dtype=complex)
            for start, waveform in self._rendered.values():
                end = start + waveform.size
                if start >= b:
                    continue
                lo, hi = max(start, a), min(end, b)
                chunk[lo - a : hi - a] += waveform[lo - start : hi - start]
            if self.noise_power > 0:
                chunk = awgn(chunk, self.noise_power, rng=self._noise_rng)
            yield chunk

    # ------------------------------------------------------------------
    @property
    def packets_scheduled(self) -> int:
        """Frames scheduled so far (total offered load once exhausted)."""
        return self._scheduler.n_scheduled

    def ground_truth(self) -> List[Dict[str, object]]:
        """Per-packet truth rows for the trace/forensics layer.

        ``start_sample`` is converted to the units the *detector* sees:
        narrowband samples (a wideband plan's starts divide exactly by
        its oversample factor, since scheduling runs on the decimation
        grid), so forensics can match detections to transmissions
        without knowing the channelizer geometry.  The rows cover only
        the frames scheduled so far -- complete once the stream has been
        consumed, empty before it starts.
        """
        m = 1 if self.plan is None else self.plan.oversample_factor
        rows: List[Dict[str, object]] = []
        for packet in self.transmitted:
            node_params = self._node_params[packet.node_id]
            rows.append(
                {
                    "node_id": packet.node_id,
                    "payload": packet.payload.hex(),
                    "start_sample": packet.start_sample // m,
                    "channel": packet.channel,
                    "spreading_factor": node_params.spreading_factor,
                    "frame_samples": packet.frame_samples(node_params),
                    "snr_db": packet.snr_db,
                }
            )
        return rows


class IqFileSource:
    """Replay a recorded IQ capture from disk in chunks.

    ``.npy`` files are loaded as saved; any other extension is read as raw
    interleaved complex64 (the common SDR capture format).
    """

    def __init__(
        self,
        params: LoRaParams,
        path: str,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> None:
        if chunk_samples <= 0:
            raise ValueError(f"chunk_samples must be positive, got {chunk_samples}")
        self.params = params
        self.path = Path(path)
        self.chunk_samples = int(chunk_samples)
        if self.path.suffix == ".npy":
            data = np.load(self.path)
        else:
            data = np.fromfile(self.path, dtype=np.complex64)
        self.samples = np.asarray(data, dtype=complex).ravel()

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield the capture chunk by chunk."""
        for a in range(0, self.samples.size, self.chunk_samples):
            yield self.samples[a : a + self.chunk_samples]
