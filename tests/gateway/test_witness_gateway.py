"""Race-witness e2e test plus regressions for the hazards it guards.

The witness test is the dynamic half of the R009 contract: run the full
streaming gateway under the thread executor with every
:class:`DecodeWorkerPool` instrumented, then require that every shared
write observed at runtime was lock-guarded *and* statically classified
by the concurrency pass.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.gateway.workers import DecodeJob, DecodeOutcome, DecodeWorkerPool
from repro.tools.analysis.witness import cross_check, install, static_verdicts
from repro.trace.recorder import TraceRecorder
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


class TestWitnessEndToEnd:
    def test_thread_executor_run_has_no_unclassified_shared_writes(self):
        # The ISSUE acceptance criterion: zero dynamically observed
        # shared writes that R009 did not classify as safe.
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
        )
        config = GatewayConfig(
            params=PARAMS,
            payload_len=PAYLOAD_LEN,
            executor="thread",
            n_workers=4,
            seed=0,
        )
        with install(DecodeWorkerPool) as observed:
            report = Gateway(config).run(source)
        assert report.decoded_payloads  # the run actually decoded traffic
        assert observed, "gateway never built a worker pool"
        verdicts = static_verdicts(
            "repro.gateway.workers.DecodeWorkerPool", [SRC_ROOT]
        )
        for pool, witness in observed:
            problems = cross_check(witness, verdicts)
            assert problems == []
            # The run must have exercised the shared path, otherwise the
            # check is vacuous.
            assert "_outcomes" in witness.shared_written_attrs()


def _dummy_job(job_id: int) -> DecodeJob:
    return DecodeJob(
        job_id=job_id,
        samples=np.zeros(16, dtype=complex),
        n_data_symbols=16,
        payload_len=PAYLOAD_LEN,
        start_sample=0,
        detection_score=1.0,
        created_at=0.0,
        params=PARAMS,
        rng_key=(0, PARAMS.spreading_factor, job_id),
    )


def _dummy_outcome(job_id: int) -> DecodeOutcome:
    return DecodeOutcome(
        job_id=job_id,
        start_sample=0,
        users=(),
        payload=None,
        crc_ok=False,
        queue_wait_s=0.0,
        decode_s=0.0,
        detection_score=1.0,
    )


class _FakeFuture:
    """Minimal completed-future stand-in for _process_done.

    With ``exc`` set it stands in for a job whose worker process died.
    """

    def __init__(
        self,
        outcome: Optional[DecodeOutcome] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        self._outcome = outcome
        self._exc = exc

    def exception(self) -> Optional[BaseException]:
        return self._exc

    def result(self) -> DecodeOutcome:
        if self._exc is not None:
            raise self._exc
        assert self._outcome is not None
        return self._outcome


class TestFuturesTableRegression:
    def test_process_done_releases_future_entry(self):
        # Regression: completed futures used to stay in self._futures for
        # the pool's lifetime, growing the table (and every _in_flight
        # scan) without bound on long streams.
        pool = DecodeWorkerPool(executor="serial")
        fake = _FakeFuture(_dummy_outcome(7))
        with pool._lock:
            pool._futures[7] = fake  # type: ignore[assignment]
            pool._jobs[7] = _dummy_job(7)
        pool._process_done(7, fake)  # type: ignore[arg-type]
        assert pool._futures == {}
        assert pool._jobs == {}
        assert [o.job_id for o in pool.close()] == [7]


class TestWorkerDeath:
    def test_dead_worker_becomes_one_error_outcome_on_its_shard(self):
        # A process worker that dies outright never reaches the in-worker
        # try/except; the parent must still account the job exactly once,
        # as an error outcome on the job's own shard row.
        pool = DecodeWorkerPool(executor="serial")
        job = _dummy_job(3)
        fake = _FakeFuture(exc=RuntimeError("worker died"))
        with pool._lock:
            pool._futures[3] = fake  # type: ignore[assignment]
            pool._jobs[3] = job
        pool._process_done(3, fake)  # type: ignore[arg-type]
        outcomes = pool.close()
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.error == "RuntimeError: worker died"
        assert (outcome.channel, outcome.spreading_factor) == (0, 7)
        assert outcome.key == job.key
        assert not outcome.crc_ok
        assert pool.telemetry.counter(f"{job.label}.decode.errors").value == 1
        assert pool.telemetry.counter("decode.errors").value == 1
        assert pool._jobs == {} and pool._futures == {}


class TestRecorderLenRegression:
    def test_len_waits_for_writer_holding_the_lock(self):
        # Regression: __len__ used to read _packets without the lock,
        # racing concurrent worker appends.
        recorder = TraceRecorder()
        entered = threading.Event()
        results: list[int] = []

        recorder._lock.acquire()

        def reader():
            entered.set()
            results.append(len(recorder))

        thread = threading.Thread(target=reader)
        thread.start()
        entered.wait(timeout=2.0)
        thread.join(timeout=0.1)
        assert thread.is_alive(), "__len__ no longer takes the recorder lock"
        recorder._lock.release()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert results == [0]
