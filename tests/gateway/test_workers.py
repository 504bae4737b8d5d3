"""Tests for the decode worker pool: correctness, determinism, backpressure."""

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.noise import awgn
from repro.core.cascade import WINDOW_LEAD_SYMBOLS, ChoirPipeline
from repro.gateway.telemetry import Telemetry
from repro.gateway.workers import (
    DROP_POLICIES,
    EXECUTORS,
    DecodeJob,
    DecodeOutcome,
    DecodeWorkerPool,
    Escalation,
    decode_packet_window,
    screen_packet_window,
)
from repro.trace.recorder import TraceDirective
from repro.hardware.radio import LoRaRadio
from repro.phy.packet import LoRaFramer
from repro.profile.profiler import KernelProfiler
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN

N_DATA = LoRaFramer(PARAMS).n_symbols_for_payload(PAYLOAD_LEN)


def _clean_window(seed: int = 0, lead: int = 0, snr_db: float = 15.0) -> tuple[DecodeJob, bytes]:
    """One noisy single-user packet window plus its true payload."""
    rng = np.random.default_rng(seed)
    radio = LoRaRadio(PARAMS, node_id=0, rng=rng)
    payload = bytes(rng.integers(0, 256, PAYLOAD_LEN, dtype=np.uint8))
    waveform, _, _ = radio.transmit_payload(payload, amplitude=10 ** (snr_db / 20))
    n = PARAMS.samples_per_symbol
    samples = np.concatenate(
        [np.zeros(lead, dtype=complex), waveform, np.zeros(2 * n, dtype=complex)]
    )
    samples = awgn(samples, 1.0, rng=rng)
    job = DecodeJob(
        job_id=seed,
        samples=samples,
        n_data_symbols=N_DATA,
        payload_len=PAYLOAD_LEN,
        start_sample=0,
        detection_score=10.0,
        created_at=time.perf_counter(),
        params=PARAMS,
        key=(seed,),
    )
    return job, payload


class TestDecodePacketWindow:
    def test_prealigned_window_decodes(self):
        job, payload = _clean_window(seed=1)
        outcome = decode_packet_window(job)
        assert outcome.crc_ok
        assert outcome.payload == payload

    def test_synchronized_window_decodes(self):
        # The gateway's cut: the window-cut contract's lead.
        job, payload = _clean_window(
            seed=2, lead=WINDOW_LEAD_SYMBOLS * PARAMS.samples_per_symbol
        )
        outcome = decode_packet_window(job)
        assert outcome.crc_ok
        assert outcome.payload == payload

    def test_deterministic_given_seed_and_job_id(self):
        job, _ = _clean_window(seed=3, lead=64)
        a = decode_packet_window(job)
        b = decode_packet_window(job)
        assert a.payload == b.payload
        assert a.crc_ok == b.crc_ok
        assert [u.offset_bins for u in a.users] == [u.offset_bins for u in b.users]

    def test_outcome_records_timing_and_score(self):
        job, _ = _clean_window(seed=4)
        outcome = decode_packet_window(job)
        assert outcome.decode_s > 0
        assert outcome.queue_wait_s >= 0
        assert outcome.detection_score == 10.0
        assert outcome.n_users == len(outcome.users)


class TestPoolExecutors:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_agree_with_each_other(self, executor):
        jobs = [_clean_window(seed=s, lead=32) for s in (10, 11)]
        pool = DecodeWorkerPool(n_workers=2, executor=executor)
        for job, _ in jobs:
            assert pool.submit(job)
        outcomes = pool.close()
        assert [o.job_id for o in outcomes] == [10, 11]
        for outcome, (_, payload) in zip(outcomes, jobs):
            assert outcome.crc_ok
            assert outcome.payload == payload

    def test_process_executor_decodes(self):
        # "full": a clean window would be decoded by Tier 0 at dispatch,
        # never reaching the worker process.
        job, payload = _clean_window(seed=12)
        pool = DecodeWorkerPool(n_workers=1, executor="process", decode_tier="full")
        assert pool.submit(job)
        outcomes = pool.close()
        assert len(outcomes) == 1
        assert outcomes[0].payload == payload
        assert outcomes[0].tier == "full"
        # The closed pool reports no job left waiting for a worker.
        assert pool.telemetry.snapshot()["dispatch.queue_depth"]["value"] == 0

    def test_process_telemetry_parity_with_serial(self):
        # The per-job counters are recorded worker-side and shipped back
        # as a state delta, so the parent registry must see identical
        # totals whether the job ran in-process or in a worker process.
        def counter_totals(executor):
            pool = DecodeWorkerPool(
                n_workers=1,
                executor=executor,
                decode_tier="full",  # decode.attempts counts full-pipeline tries
            )
            for seed in (12, 13):
                job, _ = _clean_window(seed=seed)
                assert pool.submit(job)
            pool.close()
            snapshot = pool.telemetry.snapshot()
            return {
                name: state["value"]
                for name, state in snapshot.items()
                if state["type"] == "counter"
            }

        serial, process = counter_totals("serial"), counter_totals("process")
        assert serial == process
        assert serial["decode.attempts"] >= 2
        assert serial["decode.users_found"] >= 2
        assert serial["decode.crc_ok"] == 2

    def test_close_is_idempotent_and_sorted(self):
        pool = DecodeWorkerPool(executor="serial")
        for seed in (21, 20):
            job, _ = _clean_window(seed=seed)
            pool.submit(job)
        first = pool.close()
        assert [o.job_id for o in first] == [20, 21]
        assert pool.close() == first

    def test_submit_after_close_raises(self):
        pool = DecodeWorkerPool(executor="serial")
        pool.close()
        job, _ = _clean_window(seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(job)

    def test_validation(self):
        with pytest.raises(ValueError, match="executor"):
            DecodeWorkerPool(executor="gpu")
        with pytest.raises(ValueError, match="drop_policy"):
            DecodeWorkerPool(drop_policy="random")
        with pytest.raises(ValueError, match="n_workers"):
            DecodeWorkerPool(n_workers=0)
        with pytest.raises(ValueError, match="queue_capacity"):
            DecodeWorkerPool(queue_capacity=0)


def _collided_window(seed: int) -> DecodeJob:
    """Two users' packets on top of each other: Tier 0 declines it."""
    rng = np.random.default_rng(seed)
    n = PARAMS.samples_per_symbol
    waveforms = []
    for node_id, snr_db in enumerate((15.0, 12.0)):
        radio = LoRaRadio(PARAMS, node_id=node_id, rng=rng)
        payload = bytes(rng.integers(0, 256, PAYLOAD_LEN, dtype=np.uint8))
        waveform, _, _ = radio.transmit_payload(payload, amplitude=10 ** (snr_db / 20))
        waveforms.append(waveform)
    size = max(w.size for w in waveforms) + 3 * n
    samples = np.zeros(size, dtype=complex)
    samples[32 : 32 + waveforms[0].size] += waveforms[0]
    samples[32 + n // 3 : 32 + n // 3 + waveforms[1].size] += waveforms[1]
    return DecodeJob(
        job_id=seed,
        samples=awgn(samples, 1.0, rng=rng),
        n_data_symbols=N_DATA,
        payload_len=PAYLOAD_LEN,
        start_sample=0,
        detection_score=10.0,
        created_at=time.perf_counter(),
        params=PARAMS,
        key=(seed,),
    )


def _noise_window(job_id: int) -> DecodeJob:
    """A packet-sized window of noise alone: Tier 0 declines it."""
    clean, _ = _clean_window(seed=job_id, lead=32)
    noise = awgn(np.zeros(clean.samples.size, dtype=complex), 1.0, rng=job_id)
    return replace(clean, samples=noise)


class TestTier0AtDispatch:
    """Tier 0 run at dispatch, and an escalation resumed in a worker."""

    @staticmethod
    def _jobs() -> list[DecodeJob]:
        return [_clean_window(seed=20, lead=32)[0], _collided_window(21), _noise_window(22)]

    @pytest.mark.parametrize("sampled", [True, False])
    def test_screen_then_escalate_equals_one_decode(self, sampled):
        # Outcome, span tree and job-local counters and kernels of the
        # two-stage decode are those of one decode_packet_window call.
        escalated = 0
        for job in self._jobs():
            directive = TraceDirective(key=job.key, sampled=sampled)
            whole = decode_packet_window(job, trace_directive=directive, profile=True)
            screened = screen_packet_window(job, directive, profile=True)
            if isinstance(screened, Escalation):
                escalated += 1
                staged = decode_packet_window(
                    job, trace_directive=directive, profile=True, escalation=screened
                )
            else:
                staged = screened
            assert staged.tier == whole.tier
            assert staged.escalation_reason == whole.escalation_reason
            assert (staged.users, staged.payload, staged.crc_ok) == (
                whole.users, whole.payload, whole.crc_ok
            )
            assert staged.sync_retries == whole.sync_retries
            assert staged.decode_s > 0.0
            trace, whole_trace = staged.observed.trace, whole.observed.trace
            assert (trace is None) == (whole_trace is None)
            if trace is not None:
                assert trace.structure() == whole_trace.structure()
            counters = {
                name: state["value"]
                for name, state in staged.observed.telemetry.items()
                if state["type"] == "counter"
            }
            assert counters == {
                name: state["value"]
                for name, state in whole.observed.telemetry.items()
                if state["type"] == "counter"
            }
            assert counters["decode.tier0.attempts"] == 1  # Tier 0 ran once
            kernels = {k: v["calls"] for k, v in _kernel_calls(staged).items()}
            assert kernels == {k: v["calls"] for k, v in _kernel_calls(whole).items()}
            assert kernels[("decode.window", "sf7")] == 1
        assert escalated == 2  # the collision and the noise window

    def test_clean_window_never_reaches_a_worker(self, monkeypatch):
        gate = _GatedDecode()
        monkeypatch.setattr("repro.gateway.workers.decode_packet_window", gate)
        seen = []
        pool = DecodeWorkerPool(n_workers=1, executor="thread", on_outcome=seen.append)
        job, payload = _clean_window(seed=23, lead=32)
        assert pool.submit(job)
        assert [o.payload for o in seen] == [payload]  # recorded in submit
        assert seen[0].tier == "tier0"
        assert pool.telemetry.counter("decode.tier0.ok").value == 1
        pool.close()
        assert gate.decoded == []

    def test_clean_job_is_not_queued_behind_escalations(self, monkeypatch):
        # Both thread workers hold gated escalations; a clean job
        # submitted after them is recorded before either finishes.
        release = threading.Event()
        started = threading.Semaphore(0)
        full_decode = ChoirPipeline.decode_window

        def gated(self, *args, **kwargs):
            started.release()
            assert release.wait(timeout=10.0)
            return full_decode(self, *args, **kwargs)

        monkeypatch.setattr(ChoirPipeline, "decode_window", gated)
        recorded: list = []
        pool = DecodeWorkerPool(
            n_workers=2, executor="thread", queue_capacity=1, on_outcome=recorded.append
        )
        assert pool.submit(_noise_window(0)) and pool.submit(_noise_window(1))
        assert started.acquire(timeout=10.0) and started.acquire(timeout=10.0)
        job, payload = _clean_window(seed=24, lead=32)
        assert pool.submit(job)
        assert [(o.job_id, o.payload) for o in recorded] == [(24, payload)]
        release.set()
        outcomes = pool.close()
        assert [o.job_id for o in outcomes] == [0, 1, 24]
        assert [o.tier for o in outcomes] == ["full", "full", "tier0"]

    def test_dropped_escalation_still_counts_its_tier0(self, monkeypatch):
        gate = _GatedDecode()
        monkeypatch.setattr("repro.gateway.workers.decode_packet_window", gate)
        pool = DecodeWorkerPool(n_workers=1, executor="thread", queue_capacity=1)
        assert pool.submit(_tiny_job(0))
        assert gate.started.wait(timeout=10.0)
        assert pool.submit(_tiny_job(1))
        assert not pool.submit(_tiny_job(2))
        gate.release.set()
        pool.close()
        assert pool.dropped == 1
        # The dropped job's Tier 0 ran at dispatch; the kept jobs' Tier-0
        # counts ride their escalations, which the fake decode discards.
        assert pool.telemetry.counter("decode.tier0.attempts").value == 1


def _kernel_calls(outcome: DecodeOutcome) -> dict:
    profiler = KernelProfiler()
    profiler.merge_state(outcome.observed.profile)
    return profiler.stats()


def _tiny_job(job_id: int) -> DecodeJob:
    """A 16-sample window: Tier 0 finds no preamble in it, so on the
    default cascade tier it escalates at dispatch and goes through the
    admission gate to a worker."""
    return DecodeJob(
        job_id=job_id,
        samples=np.zeros(16, dtype=complex),
        n_data_symbols=N_DATA,
        payload_len=PAYLOAD_LEN,
        start_sample=job_id,
        detection_score=1.0,
        created_at=time.perf_counter(),
        params=PARAMS,
        key=(job_id,),
    )


class _GatedDecode:
    """Fake decoder whose first call blocks until released (backpressure rig)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.decoded: list[int] = []
        self._lock = threading.Lock()
        self._first = True

    def __call__(self, job, **kwargs) -> DecodeOutcome:
        with self._lock:
            first, self._first = self._first, False
        if first:
            self.started.set()
            assert self.release.wait(timeout=10.0)
        with self._lock:
            self.decoded.append(job.job_id)
        return DecodeOutcome(
            job_id=job.job_id,
            start_sample=job.start_sample,
            users=(),
            payload=None,
            crc_ok=False,
            queue_wait_s=0.0,
            decode_s=0.0,
            detection_score=job.detection_score,
        )


class _BrokenExecutor(Executor):
    """Refuses every job, as a process pool does once a worker has died."""

    def submit(self, fn, /, *args, **kwargs):
        raise BrokenProcessPool("A child process terminated abruptly")


class TestBrokenPool:
    def test_refused_jobs_become_error_outcomes_and_free_their_slots(self):
        pool = DecodeWorkerPool(
            n_workers=1, executor="thread", queue_capacity=1, drop_policy="block"
        )
        pool._executor.shutdown()
        pool._executor = _BrokenExecutor()
        # Twice as many escalations as slots: a leaked slot would block.
        for job_id in range(4):
            assert pool.submit(_tiny_job(job_id))
        outcomes = pool.close()
        assert [o.job_id for o in outcomes] == [0, 1, 2, 3]
        assert all(o.error.startswith("BrokenProcessPool") for o in outcomes)
        telemetry = pool.telemetry
        assert telemetry.counter("decode.errors").value == 4
        assert telemetry.counter("ch0.sf7.decode.errors").value == 4
        assert pool.dropped == 0
        assert pool._admitted == 0
        assert telemetry.gauge("dispatch.queue_depth").value == 0

    def test_killed_worker_does_not_crash_the_pool(self):
        decoded = threading.Event()
        pool = DecodeWorkerPool(
            n_workers=1,
            executor="process",
            decode_tier="full",  # every window goes to the worker
            on_outcome=lambda outcome: decoded.set(),
        )
        job, payload = _clean_window(seed=12)
        assert pool.submit(job)
        assert decoded.wait(timeout=60.0)
        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGKILL)
        # The broken pool either refuses a job at submit or fails its
        # future; both end as one error outcome per job.
        for job_id in (13, 14):
            assert pool.submit(replace(job, job_id=job_id, key=(job_id,)))
        outcomes = pool.close()
        assert [o.job_id for o in outcomes] == [12, 13, 14]
        assert outcomes[0].payload == payload
        assert all(o.error.startswith("BrokenProcessPool") for o in outcomes[1:])
        assert pool.telemetry.counter("decode.errors").value == 2
        assert pool._admitted == 0
        assert multiprocessing.active_children() == []


class TestDropPolicies:
    """Backpressure behavior with one gated worker and a one-slot queue."""

    def _rig(
        self, monkeypatch, drop_policy: str, queue_capacity: int = 1
    ) -> tuple[DecodeWorkerPool, _GatedDecode]:
        assert isinstance(screen_packet_window(_tiny_job(0)), Escalation)
        gate = _GatedDecode()
        monkeypatch.setattr("repro.gateway.workers.decode_packet_window", gate)
        telemetry = Telemetry()
        pool = DecodeWorkerPool(
            n_workers=1,
            executor="thread",
            queue_capacity=queue_capacity,
            drop_policy=drop_policy,
            telemetry=telemetry,
        )
        return pool, gate

    def test_newest_drops_incoming(self, monkeypatch):
        pool, gate = self._rig(monkeypatch, "newest")
        assert pool.submit(_tiny_job(0))
        assert gate.started.wait(timeout=10.0)  # worker holds job 0
        assert pool.submit(_tiny_job(1))        # fills the queue
        assert not pool.submit(_tiny_job(2))    # queue full -> rejected
        gate.release.set()
        outcomes = pool.close()
        assert sorted(o.job_id for o in outcomes) == [0, 1]
        assert pool.dropped == 1

    def test_block_loses_nothing(self, monkeypatch):
        pool, gate = self._rig(monkeypatch, "block")
        assert pool.submit(_tiny_job(0))
        assert gate.started.wait(timeout=10.0)
        assert pool.submit(_tiny_job(1))
        unblocked = threading.Event()

        def submit_third():
            pool.submit(_tiny_job(2))  # must block until the worker drains
            unblocked.set()

        thread = threading.Thread(target=submit_third)
        thread.start()
        time.sleep(0.05)
        assert not unblocked.is_set()  # still blocked while queue is full
        gate.release.set()
        thread.join(timeout=10.0)
        assert unblocked.is_set()
        outcomes = pool.close()
        assert sorted(o.job_id for o in outcomes) == [0, 1, 2]
        assert pool.dropped == 0

    def test_queue_depth_gauge_counts_waiting_jobs(self, monkeypatch):
        pool, gate = self._rig(monkeypatch, "block", queue_capacity=2)
        gauge = pool.telemetry.gauge("dispatch.queue_depth")
        assert pool.submit(_tiny_job(0))
        assert gate.started.wait(timeout=10.0)  # worker holds job 0
        assert gauge.value == 0                 # running, not waiting
        assert pool.submit(_tiny_job(1))        # job 1 waits for the worker
        assert gauge.value == 1
        closer = threading.Thread(target=pool.close)
        closer.start()
        closer.join(timeout=0.05)
        assert closer.is_alive()  # close() drains: it waits for job 0
        gate.release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert sorted(o.job_id for o in pool.close()) == [0, 1]
        assert gauge.value == 0
        assert gauge.peak == 1

    def test_process_newest_counts_only_waiting_jobs_against_capacity(self):
        # One worker and one waiting slot: of three jobs submitted back to
        # back, the first runs, the second waits and only the third drops.
        pool = DecodeWorkerPool(
            n_workers=1,
            executor="process",
            queue_capacity=1,
            drop_policy="newest",
            decode_tier="full",  # clean windows all reach the admission gate
        )
        jobs = [_clean_window(seed=s)[0] for s in (30, 31, 32)]
        accepted = [pool.submit(job) for job in jobs]
        outcomes = pool.close()
        assert accepted == [True, True, False]
        assert [o.job_id for o in outcomes] == [30, 31]
        assert pool.dropped == 1

    def test_admission_gate_survives_contention(self, monkeypatch):
        # More workers than cores, a tiny switch interval and a blocking
        # gate two slots deep: a lost update of the admitted count or a
        # leaked slot would strand a submit, lose an outcome or leave the
        # gauge above zero.
        gate = _GatedDecode()
        gate.release.set()  # no job is held
        monkeypatch.setattr("repro.gateway.workers.decode_packet_window", gate)
        pool = DecodeWorkerPool(
            n_workers=8, executor="thread", queue_capacity=2, drop_policy="block"
        )
        outcomes: list = []

        def run():
            for job_id in range(400):
                pool.submit(_tiny_job(job_id))
            outcomes.extend(pool.close())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=run)
            driver.start()
            driver.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive()
        assert [o.job_id for o in outcomes] == list(range(400))
        assert pool.dropped == 0
        assert pool._admitted == 0
        assert pool.telemetry.gauge("dispatch.queue_depth").value == 0

    def test_constants_exported(self):
        assert set(DROP_POLICIES) == {"newest", "block"}
        assert set(EXECUTORS) == {"serial", "thread", "process"}
