"""End-to-end tracing through the streaming gateway.

The determinism contract under test: a trace's ``structure()`` (the
timestamp-free span tree) is a pure function of the run seed, so serial
and threaded executions of the same stream must produce identical trees.
"""

import numpy as np
import time

from repro.gateway import (
    DecodeWorkerPool,
    Gateway,
    GatewayConfig,
    SyntheticTrafficSource,
)
from repro.gateway.workers import DecodeJob
from repro.trace.recorder import TraceConfig, TraceRecorder, sample_key
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, periodic_node
from tests.gateway.test_workers import N_DATA, _clean_window


def _run(executor="serial", seed=0, **trace_overrides):
    source = SyntheticTrafficSource(
        PARAMS, [periodic_node()], duration_s=1.0, payload_len=PAYLOAD_LEN, rng=seed
    )
    config = GatewayConfig(
        params=PARAMS,
        payload_len=PAYLOAD_LEN,
        executor=executor,
        n_workers=4 if executor != "serial" else 1,
        seed=seed,
        trace=True,
        **trace_overrides,
    )
    return Gateway(config).run(source)


class TestGatewayTracing:
    def test_trace_off_by_default(self):
        source = SyntheticTrafficSource(
            PARAMS, [periodic_node()], duration_s=0.5, payload_len=PAYLOAD_LEN, rng=0
        )
        report = Gateway(
            GatewayConfig(params=PARAMS, payload_len=PAYLOAD_LEN, seed=0)
        ).run(source)
        assert report.trace is None

    def test_full_rate_traces_every_job(self):
        report = _run()
        recorder = report.trace
        assert isinstance(recorder, TraceRecorder)
        assert recorder.header["run_kind"] == "gateway"
        assert recorder.header["seed"] == 0
        assert recorder.truth  # synthetic source ships ground truth
        assert len(recorder.detections) == report.packets_detected
        assert len(recorder.outcomes) == len(report.outcomes)
        assert len(recorder.packets) == len(report.outcomes)

    def test_span_tree_carries_pipeline_evidence(self):
        packet = _run().trace.packets[0]
        names = [span.name for span in packet.root.walk()]
        assert names[0] == "decode.job"
        assert "align" in names and "attempt" in names
        assert packet.root.find_events("detect.align")
        assert packet.root.find_events("sic.tier")
        result = packet.root.find_events("result")
        assert result and result[0].attrs["crc_ok"] is True
        align = next(s for s in packet.root.walk() if s.name == "align")
        assert align.attrs["score"] > 0

    def test_serial_and_thread_trees_identical(self):
        serial = _run(executor="serial")
        threaded = _run(executor="thread")
        serial_trees = [p.structure() for p in serial.trace.packets]
        thread_trees = [p.structure() for p in threaded.trace.packets]
        assert serial_trees == thread_trees
        assert len(serial_trees) == 4

    def test_sample_rate_zero_keeps_no_healthy_traces(self):
        report = _run(trace_sample_rate=0.0, trace_always_sample_failures=True)
        # Clean traffic: every decode passes CRC, so nothing is retained --
        # but the detection/outcome rows (the forensics substrate) remain.
        assert len(report.trace.packets) == 0
        assert report.trace.outcomes
        assert all(o["crc_ok"] for o in report.trace.outcomes)

    def test_sampling_is_deterministic_by_key(self):
        recorder = TraceRecorder(
            TraceConfig(sample_rate=0.5, always_sample_failures=False)
        )
        keys = [(0, sf, seq) for sf in (7, 8) for seq in range(20)]
        decisions = {key: recorder.directive(key).sampled for key in keys}
        assert decisions == {key: sample_key(key) < 0.5 for key in keys}
        assert 0 < sum(decisions.values()) < len(keys)


class TestAlwaysSampleFailures:
    def _noise_job(self, job_id: int = 0) -> DecodeJob:
        rng = np.random.default_rng(123)
        n = 30 * PARAMS.samples_per_symbol
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        return DecodeJob(
            job_id=job_id,
            samples=samples,
            n_data_symbols=N_DATA,
            payload_len=PAYLOAD_LEN,
            start_sample=0,
            detection_score=1.1,
            created_at=time.perf_counter(),
            params=PARAMS,
            rng_key=(job_id,),
        )

    def test_failed_job_trace_retained_at_rate_zero(self):
        recorder = TraceRecorder(
            TraceConfig(sample_rate=0.0, always_sample_failures=True)
        )
        pool = DecodeWorkerPool(
            executor="serial", rng=0, trace_recorder=recorder
        )
        ok_job, _ = _clean_window(seed=10, lead=32)
        pool.submit(ok_job)
        pool.submit(self._noise_job(job_id=99))
        outcomes = {o.job_id: o for o in pool.close()}
        assert outcomes[10].crc_ok
        assert not outcomes[99].crc_ok
        # Only the failure's span tree survives the rate-0 policy.
        assert [p.job_id for p in recorder.packets] == [99]
        assert len(recorder.outcomes) == 2

    def test_failures_disabled_keeps_nothing(self):
        recorder = TraceRecorder(
            TraceConfig(sample_rate=0.0, always_sample_failures=False)
        )
        pool = DecodeWorkerPool(
            executor="serial", rng=0, trace_recorder=recorder
        )
        pool.submit(self._noise_job())
        pool.close()
        assert len(recorder.packets) == 0
