"""Race-witness e2e test plus regressions for the hazards it guards.

The witness test is the dynamic half of the R009 contract: run the full
streaming gateway under the thread and the process executor with every
:class:`DecodeWorkerPool` instrumented, then require that every shared
write observed at runtime was lock-guarded *and* statically classified
by the concurrency pass.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Set

import numpy as np
import pytest

from repro.gateway import Gateway, GatewayConfig, SyntheticTrafficSource
from repro.gateway.workers import DecodeJob, DecodeOutcome, DecodeWorkerPool
from repro.tools.analysis.witness import cross_check, install, static_verdicts
from repro.trace.recorder import TraceRecorder
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


class TestWitnessEndToEnd:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_no_unclassified_shared_writes(self, executor):
        # Zero dynamically observed shared writes that R009 did not
        # classify as safe.  Under "thread" the decoding worker threads
        # record outcomes; under "process" the executor's result-handling
        # thread runs every done callback, and with it on_outcome.
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=0
        )
        config = GatewayConfig(
            params=PARAMS,
            payload_len=PAYLOAD_LEN,
            executor=executor,
            n_workers=4,
            seed=0,
        )
        callers: Set[int] = set()
        with install(DecodeWorkerPool) as observed:
            report = Gateway(
                config, on_outcome=lambda o: callers.add(threading.get_ident())
            ).run(source)
        assert report.decoded_payloads  # the run actually decoded traffic
        assert callers - {threading.get_ident()}, "no outcome left the caller"
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


def _raise(job: DecodeJob, *args: object, **kwargs: object) -> DecodeOutcome:
    raise RuntimeError("worker died")


def _exit(job: DecodeJob, *args: object, **kwargs: object) -> DecodeOutcome:
    os._exit(1)  # the worker process dies without answering


class TestWorkerDeath:
    @pytest.mark.parametrize(
        "executor,decode,error",
        [
            ("thread", _raise, "RuntimeError: worker died"),
            ("process", _exit, "BrokenProcessPool: "),
        ],
        ids=["thread", "process"],
    )
    def test_dead_worker_becomes_one_error_outcome_on_its_shard(
        self, monkeypatch, executor, decode, error
    ):
        # A job that raises, or whose worker process dies outright, must
        # still be accounted exactly once, as an error outcome on the
        # job's own shard row.
        monkeypatch.setattr("repro.gateway.workers.decode_packet_window", decode)
        pool = DecodeWorkerPool(executor=executor)
        job = _dummy_job(3)
        assert pool.submit(job)
        outcomes = pool.close()
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.error is not None and outcome.error.startswith(error)
        assert (outcome.channel, outcome.spreading_factor) == (0, 7)
        assert outcome.key == job.key
        assert not outcome.crc_ok
        assert pool.telemetry.counter(f"{job.label}.decode.errors").value == 1
        assert pool.telemetry.counter("decode.errors").value == 1


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
