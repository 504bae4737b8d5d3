"""Streaming-relevant edge cases for the packet-detection search.

The gateway consumes its ring front-to-back, so detection must (a) find
the *first* packet when several sit in one capture, (b) not fire on pure
noise, and (c) recover packets whose samples arrive split across chunk
boundaries, and (d) dispatch the same jobs whether or not a scanner
carries window spectra across scans, and (e) place every packet start
exactly where a search scoring every start at 10x would, although the
scan decides at 2x.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.channel.noise import awgn
from repro.core import detection
from repro.core.dechirp import (
    DEFAULT_OVERSAMPLE,
    cached_downchirp,
    dechirp_windows,
    oversampled_spectrum,
)
from repro.core.detection import align_to_window_grid, detect_preamble, sliding_packet_search
from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.gateway import runtime
from repro.gateway.ring import SampleRing
from repro.gateway.runtime import StreamScanner
from repro.gateway.telemetry import Telemetry
from repro.hardware.radio import LoRaRadio
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node


def _frame(seed: int, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    radio = LoRaRadio(PARAMS, node_id=seed, rng=rng)
    payload = bytes(rng.integers(0, 256, PAYLOAD_LEN, dtype=np.uint8))
    waveform, _, _ = radio.transmit_payload(payload, amplitude=amplitude)
    return waveform


class TestEarliestDetection:
    def test_back_to_back_packets_report_the_first(self):
        # A weak packet directly followed by a much stronger one, no idle
        # gap: global-best search locks onto the strong one, but the
        # streaming consumer needs the first.
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(0)
        capture = np.concatenate(
            [np.zeros(2 * n, dtype=complex), _frame(1, 4.0), _frame(2, 12.0)]
        )
        capture = awgn(capture, 1.0, rng=rng)
        first = sliding_packet_search(PARAMS, capture, earliest=True)
        best = sliding_packet_search(PARAMS, capture, earliest=False)
        assert first.detected and best.detected
        assert first.start_window == 2
        assert best.start_window > first.start_window  # strong one wins globally

    def test_earliest_still_refines_locally(self):
        # With one packet, earliest mode must agree with the global best.
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(1)
        capture = np.concatenate(
            [np.zeros(5 * n, dtype=complex), _frame(3, 10.0), np.zeros(3 * n, dtype=complex)]
        )
        capture = awgn(capture, 1.0, rng=rng)
        first = sliding_packet_search(PARAMS, capture, earliest=True)
        best = sliding_packet_search(PARAMS, capture, earliest=False)
        assert first.start_window == best.start_window == 5

    def test_all_noise_stream_has_no_false_detection(self):
        # A long all-noise capture: the pfa calibration divides by the
        # number of starts, so the search-level false-alarm rate holds.
        rng = np.random.default_rng(2)
        n = PARAMS.samples_per_symbol
        noise = (
            rng.standard_normal(200 * n) + 1j * rng.standard_normal(200 * n)
        ) / np.sqrt(2)
        for earliest in (False, True):
            result = sliding_packet_search(PARAMS, noise, earliest=earliest)
            assert not result.detected


class TestAlignCandidateRange:
    def test_range_bounds_the_estimate(self):
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(3)
        shift = 150
        capture = np.concatenate(
            [np.zeros(shift, dtype=complex), _frame(4, 10.0), np.zeros(n, dtype=complex)]
        )
        capture = awgn(capture, 1.0, rng=rng)
        start, score = align_to_window_grid(
            PARAMS, capture, candidate_range=(0, 2 * n)
        )
        assert 0 <= start < 2 * n
        assert score > 1.0

    def test_empty_range_falls_back_to_all_candidates(self):
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(4)
        capture = awgn(
            np.concatenate([_frame(5, 10.0), np.zeros(n, dtype=complex)]), 1.0, rng=rng
        )
        bounded, _ = align_to_window_grid(PARAMS, capture, candidate_range=(-5, -1))
        unbounded, _ = align_to_window_grid(PARAMS, capture)
        assert bounded == unbounded


class TestChunkStraddle:
    @pytest.mark.parametrize("chunk_samples", [1000, 2048])
    def test_packet_straddling_chunk_boundaries_is_decoded(self, chunk_samples):
        # Chunks smaller than a frame (3072 samples): every packet spans
        # several chunks and the detection straddle path must reassemble
        # it from the ring before dispatch.
        source = SyntheticTrafficSource(
            PARAMS,
            [periodic_node(period_s=0.3)],
            duration_s=1.0,
            payload_len=PAYLOAD_LEN,
            chunk_samples=chunk_samples,
            rng=1,
        )
        config = GatewayConfig(
            params=PARAMS, payload_len=PAYLOAD_LEN, executor="serial", seed=1
        )
        report = Gateway(config).run(source)
        sent = sorted(p.payload for p in source.transmitted)
        assert len(sent) > 0
        assert sorted(report.decoded_payloads) == sent


class _RecordingPool:
    """Stands in for the decode pool: records what the scanners submit."""

    def __init__(self):
        self.jobs = []

    def submit(self, job):
        self.jobs.append((job.start_sample, job.detection_score))
        return True


def _scan_stream(chunk_samples):
    """Run an SF7 and an SF8 scanner over one ring, as the gateway does."""
    nodes = [
        NodeConfig(node_id=i, snr_db=snr, period_s=period)
        for i, (snr, period) in enumerate([(15.0, 0.13), (3.0, 0.17), (-6.0, 0.23)])
    ]
    source = SyntheticTrafficSource(
        PARAMS, nodes, duration_s=1.0, payload_len=PAYLOAD_LEN,
        chunk_samples=chunk_samples, rng=2,
    )
    telemetry = Telemetry()
    ring = SampleRing(1 << 16)
    scanners = [
        StreamScanner(replace(PARAMS, spreading_factor=sf), PAYLOAD_LEN, telemetry)
        for sf in (7, 8)
    ]
    pool = _RecordingPool()
    job_id = 0
    for chunk in source.chunks():
        ring.append(chunk)
        for scanner in scanners:
            job_id = scanner.scan(ring, pool, job_id)
        ring.consume(min(scanner.release_pos for scanner in scanners))
    for scanner in scanners:
        job_id = scanner.scan(ring, pool, job_id, final=True)
    return pool.jobs, telemetry


class TestScannerMemo:
    @pytest.mark.parametrize("chunk_samples", [1000, 512])
    def test_memo_dispatches_the_same_jobs(self, chunk_samples, monkeypatch):
        memoized, telemetry = _scan_stream(chunk_samples)

        def fresh_search(params, samples, *args, memo=None, origin=0, **kwargs):
            return sliding_packet_search(params, samples, *args, **kwargs)

        monkeypatch.setattr(runtime, "sliding_packet_search", fresh_search)
        fresh, _ = _scan_stream(chunk_samples)
        assert len(memoized) >= 6
        assert memoized == fresh  # exact start samples and scores
        assert telemetry.counter("detect.windows_reused").value > 0
        assert telemetry.counter("detect.windows_transformed").value > 0
        assert telemetry.counter("detect.windows_refined").value > 0


def _scan_capture(capture, chunk_samples):
    """Jobs one SF7 scanner dispatches from ``capture`` fed in chunks."""
    ring = SampleRing(1 << 16)
    scanner = StreamScanner(PARAMS, PAYLOAD_LEN, Telemetry())
    pool = _RecordingPool()
    job_id = 0
    for lo in range(0, capture.size, chunk_samples):
        ring.append(capture[lo : lo + chunk_samples])
        job_id = scanner.scan(ring, pool, job_id)
        ring.consume(scanner.release_pos)
    scanner.scan(ring, pool, job_id, final=True)
    return pool.jobs


def _fine_everywhere(monkeypatch):
    """Make the scan decide at 10x too: the search before the split."""
    monkeypatch.setattr(detection, "SCAN_OVERSAMPLE", DEFAULT_OVERSAMPLE)


def _per_start_scores(capture, oversample):
    """detect_preamble's score of every start of ``capture`` as one segment."""
    n, span = PARAMS.samples_per_symbol, PARAMS.preamble_len
    n_starts = capture.size // n - span + 1
    power = np.abs(oversampled_spectrum(dechirp_windows(PARAMS, capture), oversample)) ** 2
    return np.array(
        [
            detect_preamble(
                power[start : start + span].mean(axis=0),
                oversample,
                n_windows=span,
                pfa=1e-3 / n_starts,
            ).score
            for start in range(n_starts)
        ]
    )


class TestTwoResolutionScan:
    def test_weak_collision_then_strong_packet_keeps_fine_starts(self, monkeypatch):
        # Two weak packets collide and a strong one follows back to back.
        # Picked at 2x, the weak detection lands one window late, and the
        # frame skip then pushes the strong packet's start one window late
        # too -- the chain that cost a packet on the urban scenario.
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(1)
        weak_a, weak_b, strong = _frame(4, 0.5), _frame(5, 0.55), _frame(6, 6.4)
        lead, gap = 3 * n + 50, 77
        size = lead + weak_a.size + gap + strong.size + 4 * n
        capture = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)
        capture[lead : lead + weak_a.size] += weak_a
        capture[lead + 2 : lead + 2 + weak_b.size] += weak_b
        at = lead + weak_a.size + gap
        capture[at : at + strong.size] += strong
        jobs = _scan_capture(capture, 1000)

        picked_at_2x = partial(
            sliding_packet_search, oversample=detection.SCAN_OVERSAMPLE
        )
        with monkeypatch.context() as patch:
            patch.setattr(runtime, "sliding_packet_search", picked_at_2x)
            coarse = _scan_capture(capture, 1000)
        _fine_everywhere(monkeypatch)
        reference = _scan_capture(capture, 1000)
        assert [start for start, _ in reference] == [128, 3328]
        assert [start for start, _ in coarse] == [256, 3456]
        assert jobs == reference  # exact start samples and scores

    def test_unconfirmed_coarse_crossing_does_not_hide_a_later_packet(self, monkeypatch):
        # Ten windows of a weak on-bin tone whose 2x score just crosses the
        # threshold while no 10x score does, then a real packet in the
        # same segment.
        n = PARAMS.samples_per_symbol
        rng = np.random.default_rng(13)
        packet = _frame(13, 4.0)
        size = 23 * n + packet.size
        capture = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)
        tone = 0.144 * np.exp(2j * np.pi * 40 * np.arange(n) / n)
        tone = tone * np.conj(cached_downchirp(PARAMS))
        for window in range(2, 12):
            capture[window * n : (window + 1) * n] += tone
        capture[20 * n + 37 : 20 * n + 37 + packet.size] += packet
        phantom_starts = slice(0, 13)  # starts clear of the packet
        assert _per_start_scores(capture, detection.SCAN_OVERSAMPLE)[phantom_starts].max() >= 1
        assert _per_start_scores(capture, DEFAULT_OVERSAMPLE)[phantom_starts].max() < 1
        jobs = _scan_capture(capture, capture.size)  # one scan, one segment
        _fine_everywhere(monkeypatch)
        assert jobs == _scan_capture(capture, capture.size)
        assert [start for start, _ in jobs] == [20 * n - 2 * n]


class TestLazyPeaks:
    def test_gateway_run_never_picks_preamble_peaks(self, monkeypatch):
        # The scanner reads only detected/start_window/score, so the
        # deferred peak picking must never run on the streaming path.
        calls = []
        real = detection.find_peaks

        def counting_find_peaks(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(detection, "find_peaks", counting_find_peaks)
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
        )
        config = GatewayConfig(params=PARAMS, payload_len=PAYLOAD_LEN, seed=0)
        report = Gateway(config).run(source)
        assert report.packets_detected > 0
        assert calls == []


class _PerShardScanner(StreamScanner):
    """The scan loop as it ran before the batched coarse pass (reference).

    Every scan runs :func:`sliding_packet_search` on a copy of the shard's
    whole unscanned span, shard by shard, deciding and picking in one call;
    the shard's :class:`runtime.CoarsePass` never runs.
    """

    def scan(self, ring, pool, next_job_id, final=False):
        n = self.params.samples_per_symbol
        telemetry = self.telemetry
        while True:
            self.scan_pos = max(self.scan_pos, ring.start)
            available = ring.end - self.scan_pos
            if available < self.min_span:
                break
            segment = ring.view(self.scan_pos, available)
            result = sliding_packet_search(
                self.params,
                segment,
                pfa=self.detection_pfa,
                earliest=True,
                memo=self._memo,
                origin=self.scan_pos,
            )
            telemetry.counter("detect.scans").inc()
            telemetry.counter("detect.windows_transformed").inc(
                self._memo.windows_transformed
            )
            telemetry.counter("detect.windows_reused").inc(self._memo.windows_reused)
            telemetry.counter("detect.windows_refined").inc(self._memo.windows_refined)
            if not result.detected:
                self.scan_pos = max(self.scan_pos, ring.end - self.min_span)
                self._release(self.scan_pos - self.lead)
                break
            start = self.scan_pos + result.start_window * n
            window_end = start + self.frame_samples + self.tail
            if window_end > ring.end and not final:
                self._release(max(start - self.lead, ring.start))
                break
            job = self._make_job(ring, start, window_end, next_job_id, result.score)
            self.detected += 1
            next_job_id += 1
            self.shard_seq += 1
            telemetry.counter("detect.packets").inc()
            telemetry.counter(f"{self.label}.detect.packets").inc()
            pool.submit(job)
            self.scan_pos = start + self.frame_samples + n
            self._release(self.scan_pos - self.lead)
            if min(window_end, ring.end) >= ring.end and final:
                break
        return next_job_id


class _DispatchLog:
    """Stands in for ``DecodeWorkerPool`` inside ``Gateway.run``: no decode."""

    jobs: list = []

    def __init__(self, **kwargs):
        self.dropped = 0

    def submit(self, job):
        _DispatchLog.jobs.append(job)
        return True

    def close(self):
        return []


EU868_8 = ChannelPlan.eu868_style(8)
DETECT_COUNTERS = (
    "detect.scans",
    "detect.windows_transformed",
    "detect.windows_reused",
    "detect.windows_refined",
    "detect.packets",
)


def _dispatched(monkeypatch, chunk_samples, per_shard):
    """Jobs and ``detect.*`` totals of one 8-channel SF7+SF8 ``Gateway.run``."""
    nodes = [
        NodeConfig(
            node_id=i,
            snr_db=(12.0, 3.0, -3.0)[i % 3],
            period_s=0.09 + 0.013 * i,
            channel=i % 8,
            spreading_factor=(7, 8)[(i // 8) % 2],
        )
        for i in range(16)
    ]
    # Back to back: SF7 frames 24.6 ms long every 26 ms on channel 0.
    nodes.append(NodeConfig(node_id=16, snr_db=10.0, period_s=0.026, channel=0,
                            spreading_factor=7))
    source = SyntheticTrafficSource(
        PARAMS, nodes, duration_s=0.6, payload_len=PAYLOAD_LEN,
        chunk_samples=chunk_samples, plan=EU868_8, rng=5,
    )
    config = GatewayConfig(params=PARAMS, plan=EU868_8, sf_set=(7, 8),
                           payload_len=PAYLOAD_LEN, executor="serial")
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "DecodeWorkerPool", _DispatchLog)
        patch.setattr(_DispatchLog, "jobs", [])
        if per_shard:
            patch.setattr(runtime, "StreamScanner", _PerShardScanner)
        report = Gateway(config).run(source)
        jobs = [
            (job.job_id, job.key, job.start_sample, float(job.detection_score).hex())
            for job in _DispatchLog.jobs
        ]
    counters = {name: report.telemetry[name]["value"] for name in DETECT_COUNTERS}
    return jobs, counters


class TestBatchedCoarsePass:
    """One coarse pass for all shards dispatches what per-shard scans did."""

    @pytest.mark.parametrize("chunk_samples", [4096, 4000])
    def test_same_jobs_and_counters_as_per_shard_scans(self, monkeypatch, chunk_samples):
        batched, counters = _dispatched(monkeypatch, chunk_samples, per_shard=False)
        reference, reference_counters = _dispatched(monkeypatch, chunk_samples, per_shard=True)
        assert batched == reference
        assert counters == reference_counters
        # The stream covers what the batched pass must get right: every
        # shard dispatches, frames run back to back, and frames straddle
        # chunk boundaries.
        assert {key[:2] for _, key, _, _ in batched} == {
            (channel, sf) for channel in range(8) for sf in (7, 8)
        }
        narrow_chunk = chunk_samples / EU868_8.n_channels
        frame = StreamScanner(PARAMS, PAYLOAD_LEN, Telemetry()).frame_samples
        starts = sorted(start for _, key, start, _ in batched if key[:2] == (0, 7))
        assert any(b - a < frame + 4 * PARAMS.samples_per_symbol
                   for a, b in zip(starts, starts[1:])), "no back-to-back frames"
        assert any(
            (start // narrow_chunk) != ((start + frame) // narrow_chunk)
            for _, _, start, _ in batched
        ), "no frame straddles a chunk boundary"
        assert counters["detect.windows_refined"] > 0
        assert counters["detect.windows_reused"] > 0
