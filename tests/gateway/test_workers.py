"""Tests for the decode worker pool: correctness, determinism, backpressure."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.channel.noise import awgn
from repro.core.cascade import WINDOW_LEAD_SYMBOLS
from repro.gateway.telemetry import Telemetry
from repro.gateway.workers import (
    DROP_POLICIES,
    EXECUTORS,
    DecodeJob,
    DecodeOutcome,
    DecodeWorkerPool,
    decode_packet_window,
)
from repro.hardware.radio import LoRaRadio
from repro.phy.packet import LoRaFramer
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
        rng_key=(seed,),
    )
    return job, payload


class TestDecodePacketWindow:
    def test_prealigned_window_decodes(self):
        job, payload = _clean_window(seed=1)
        outcome = decode_packet_window(job, np.random.SeedSequence(0))
        assert outcome.crc_ok
        assert outcome.payload == payload

    def test_synchronized_window_decodes(self):
        # The gateway's cut: the window-cut contract's lead.
        job, payload = _clean_window(
            seed=2, lead=WINDOW_LEAD_SYMBOLS * PARAMS.samples_per_symbol
        )
        outcome = decode_packet_window(job, np.random.SeedSequence(0))
        assert outcome.crc_ok
        assert outcome.payload == payload

    def test_deterministic_given_seed_and_job_id(self):
        job, _ = _clean_window(seed=3, lead=64)
        seeds = np.random.SeedSequence(42)
        a = decode_packet_window(job, seeds)
        b = decode_packet_window(job, seeds)
        assert a.payload == b.payload
        assert a.crc_ok == b.crc_ok
        assert [u.offset_bins for u in a.users] == [u.offset_bins for u in b.users]

    def test_outcome_records_timing_and_score(self):
        job, _ = _clean_window(seed=4)
        outcome = decode_packet_window(job, np.random.SeedSequence(0))
        assert outcome.decode_s > 0
        assert outcome.queue_wait_s >= 0
        assert outcome.detection_score == 10.0
        assert outcome.n_users == len(outcome.users)


class TestPoolExecutors:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_agree_with_each_other(self, executor):
        jobs = [_clean_window(seed=s, lead=32) for s in (10, 11)]
        pool = DecodeWorkerPool(n_workers=2, executor=executor, rng=5)
        for job, _ in jobs:
            assert pool.submit(job)
        outcomes = pool.close()
        assert [o.job_id for o in outcomes] == [10, 11]
        for outcome, (_, payload) in zip(outcomes, jobs):
            assert outcome.crc_ok
            assert outcome.payload == payload

    def test_process_executor_decodes(self):
        job, payload = _clean_window(seed=12)
        pool = DecodeWorkerPool(n_workers=1, executor="process", rng=0)
        assert pool.submit(job)
        outcomes = pool.close()
        assert len(outcomes) == 1
        assert outcomes[0].payload == payload
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
                rng=0,
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
        pool = DecodeWorkerPool(executor="serial", rng=0)
        for seed in (21, 20):
            job, _ = _clean_window(seed=seed)
            pool.submit(job)
        first = pool.close()
        assert [o.job_id for o in first] == [20, 21]
        assert pool.close() == first

    def test_submit_after_close_raises(self):
        pool = DecodeWorkerPool(executor="serial", rng=0)
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


def _tiny_job(job_id: int) -> DecodeJob:
    return DecodeJob(
        job_id=job_id,
        samples=np.zeros(16, dtype=complex),
        n_data_symbols=N_DATA,
        payload_len=PAYLOAD_LEN,
        start_sample=job_id,
        detection_score=1.0,
        created_at=time.perf_counter(),
        params=PARAMS,
        rng_key=(job_id,),
    )


class _GatedDecode:
    """Fake decoder whose first call blocks until released (backpressure rig)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.decoded: list[int] = []
        self._lock = threading.Lock()
        self._first = True

    def __call__(self, job, base_seed, **kwargs) -> DecodeOutcome:
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


class TestDropPolicies:
    """Backpressure behavior with one gated worker and a one-slot queue."""

    def _rig(
        self, monkeypatch, drop_policy: str, queue_capacity: int = 1
    ) -> tuple[DecodeWorkerPool, _GatedDecode]:
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
            rng=0,
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
