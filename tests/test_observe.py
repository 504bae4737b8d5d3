"""The ambient observation context: telemetry hooks, stages and bundles.

The profiler and trace sinks' install/no-op semantics are covered in
``tests/profile/test_context.py`` and ``tests/trace/test_model.py``.
"""

import pickle

from repro import observe
from repro.gateway.telemetry import Telemetry
from repro.profile import KernelProfiler
from repro.trace.model import PacketTrace, TraceBuilder


class TestTelemetryHooks:
    def test_counter_and_timer_noop_without_telemetry(self):
        observe.counter("x")
        with observe.timer("x_s"):
            pass
        # A scope with only a profiler still has no telemetry sink.
        with observe.scope(profiler=KernelProfiler()):
            observe.counter("x")
            with observe.timer("x_s"):
                pass

    def test_counter_and_timer_record_into_telemetry(self):
        telemetry = Telemetry()
        with observe.scope(telemetry):
            observe.counter("decode.attempts")
            observe.counter("decode.users_found", 3)
            with observe.timer("decode.align_s"):
                pass
        assert telemetry.counter("decode.attempts").value == 1
        assert telemetry.counter("decode.users_found").value == 3
        assert telemetry.histogram("decode.align_s").count == 1


class TestStage:
    def test_stage_opens_span_and_timer(self):
        telemetry, builder = Telemetry(), TraceBuilder("job")
        with observe.scope(telemetry, builder):
            with observe.stage("align", timer="decode.align_s", kind="grid"):
                observe.annotate(offset=4)
        assert telemetry.histogram("decode.align_s").count == 1
        (align,) = builder.finish().children
        assert align.name == "align"
        assert align.attrs == {"kind": "grid", "offset": 4}

    def test_stage_with_one_sink(self):
        telemetry, builder = Telemetry(), TraceBuilder("job")
        with observe.scope(telemetry):
            with observe.stage("align", timer="decode.align_s"):
                pass
        with observe.scope(builder=builder):
            with observe.stage("align", timer="decode.align_s"):
                pass
        assert telemetry.histogram("decode.align_s").count == 1
        assert [s.name for s in builder.finish().children] == ["align"]

    def test_stage_noop_when_nothing_installed(self):
        ran = False
        with observe.stage("align", timer="decode.align_s"):
            ran = True
        assert ran


class TestBundle:
    def _observed_job(self):
        telemetry, profiler = Telemetry(), KernelProfiler()
        builder = TraceBuilder("decode.job")
        with observe.scope(telemetry, builder, profiler) as observation:
            with observe.kernel("decode.window", "sf7"):
                observe.counter("decode.attempts", 2)
        trace = PacketTrace(
            key=(0, 7, 1),
            job_id=1,
            channel=0,
            spreading_factor=7,
            start_sample=0,
            detection_score=1.0,
            sampled=True,
            root=builder.finish(),
        )
        return observation.bundle(trace)

    def test_bundle_survives_pickling(self):
        bundle = self._observed_job()
        clone = pickle.loads(pickle.dumps(bundle))
        assert clone.telemetry == bundle.telemetry
        assert clone.profile == bundle.profile
        assert clone.trace.structure() == bundle.trace.structure()

    def test_merge_folds_telemetry_and_profile_in_one_call(self):
        telemetry, profiler = Telemetry(), KernelProfiler()
        sinks = observe.Observation(telemetry, profiler=profiler)
        for _ in range(3):
            sinks.merge(self._observed_job())
        assert telemetry.counter("decode.attempts").value == 6
        assert profiler.stats()[("decode.window", "sf7")]["calls"] == 3

    def test_empty_bundle_merges_nothing(self):
        telemetry = Telemetry()
        observe.Observation(telemetry).merge(observe.Observation().bundle())
        assert telemetry.state() == {}
