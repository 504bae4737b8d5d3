"""Tests for the span-tree data model and the ambient trace context."""

import pytest

from repro import observe
from repro.trace.model import PacketTrace, Span, SpanEvent, TraceBuilder


def _sample_tree() -> Span:
    root = Span(name="job", start_ts=10.0, end_ts=12.0, attrs={"job_id": 3})
    child = Span(name="align", start_ts=10.2, end_ts=10.4, attrs={"score": 8.5})
    child.events.append(SpanEvent(name="detect.align", ts=10.3, attrs={"start": 64}))
    root.children.append(child)
    return root


class TestSpan:
    def test_duration(self):
        span = Span(name="x", start_ts=1.0, end_ts=1.5)
        assert span.duration_s == pytest.approx(0.5)
        assert Span(name="open", start_ts=2.0).duration_s == 0.0

    def test_structure_strips_timestamps(self):
        structure = _sample_tree().structure()
        text = str(structure)
        assert "ts" not in structure
        assert "start_ts" not in text and "10.3" not in text
        assert structure["children"][0]["attrs"]["score"] == 8.5
        assert structure["children"][0]["events"][0]["name"] == "detect.align"

    def test_dict_roundtrip(self):
        root = _sample_tree()
        restored = Span.from_dict(root.to_dict())
        assert restored.to_dict() == root.to_dict()
        assert restored.children[0].events[0].attrs == {"start": 64}

    def test_walk_and_find_events(self):
        root = _sample_tree()
        assert [s.name for s in root.walk()] == ["job", "align"]
        events = root.find_events("detect.align")
        assert len(events) == 1
        assert root.find_events("missing") == []


class TestPacketTrace:
    def _packet(self) -> PacketTrace:
        return PacketTrace(
            key=(0, 7, 2),
            job_id=2,
            channel=0,
            spreading_factor=7,
            start_sample=4096,
            detection_score=3.5,
            sampled=True,
            root=_sample_tree(),
            label="ch0.sf7",
        )

    def test_dict_roundtrip(self):
        packet = self._packet()
        restored = PacketTrace.from_dict(packet.to_dict())
        assert restored.to_dict() == packet.to_dict()
        assert restored.key == (0, 7, 2)

    def test_structure_is_timestamp_free(self):
        a = self._packet()
        b = self._packet()
        b.root.start_ts += 100.0
        b.root.end_ts += 100.0
        assert a.structure() == b.structure()
        assert a.to_dict() != b.to_dict()


class TestTraceBuilder:
    def test_nested_spans_and_events(self):
        builder = TraceBuilder("decode.job", job_id=1)
        with builder.span("align") as align:
            builder.annotate(score=9.0)
            with builder.span("attempt", index=0):
                builder.event("sic.tier", tier=0)
        root = builder.finish()
        assert root.attrs == {"job_id": 1}
        assert align.attrs == {"score": 9.0}
        assert [s.name for s in root.walk()] == ["decode.job", "align", "attempt"]
        assert root.find_events("sic.tier")[0].attrs == {"tier": 0}

    def test_finish_closes_open_spans_idempotently(self):
        builder = TraceBuilder("job")
        builder._stack.append(
            Span(name="left-open", start_ts=builder.root.start_ts)
        )
        builder.root.children.append(builder._stack[-1])
        root = builder.finish()
        assert all(s.end_ts >= s.start_ts for s in root.walk())
        assert builder.finish() is root

    def test_current_tracks_innermost(self):
        builder = TraceBuilder("job")
        assert builder.current is builder.root
        with builder.span("inner") as inner:
            assert builder.current is inner
        assert builder.current is builder.root


class TestAmbientContext:
    def test_inactive_is_noop(self):
        assert observe.current() is None
        observe.add_event("x", a=1)
        observe.annotate(a=1)
        with observe.span("x"):
            pass  # must not raise without an active builder

    def test_use_builder_routes_calls(self):
        builder = TraceBuilder("job")
        with observe.scope(builder=builder) as observation:
            assert observe.current() is observation
            assert observation.builder is builder
            with observe.span("stage", kind="test"):
                observe.add_event("evt", value=2)
                observe.annotate(extra=True)
        assert observe.current() is None
        root = builder.finish()
        stage = root.children[0]
        assert stage.name == "stage"
        assert stage.attrs == {"kind": "test", "extra": True}
        assert stage.events[0].attrs == {"value": 2}

    def test_use_builder_accepts_none(self):
        with observe.scope(builder=None):
            assert observe.current() is None

    def test_nesting_restores_previous(self):
        outer, inner = TraceBuilder("outer"), TraceBuilder("inner")
        with observe.scope(builder=outer):
            with observe.scope(builder=inner):
                assert observe.current().builder is inner
            assert observe.current().builder is outer
        assert observe.current() is None
