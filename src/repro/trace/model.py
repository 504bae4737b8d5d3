"""Span-tree data model for decode provenance traces.

A *packet trace* is the full story of one detection->decode job: a tree
of :class:`Span` stages (align, per-offset decode attempts, ...), each
carrying timestamped :class:`SpanEvent` records emitted by the pipeline
stages themselves (per-SIC-tier residual power, conflict resolutions,
CRC verdicts).  The model is deliberately plain-dataclass + dict-of-JSON
so traces pickle cleanly across the process executor and serialize to
both JSONL and Chrome trace-event form without translation layers.

Determinism contract: everything in a trace except wall-clock timestamps
is a pure function of the job's ``key`` and samples (decoding draws no
randomness).  The
``structure()`` views strip the timestamps, so two runs of the same
stream under different executors can be compared for exact equality.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


def _wall_clock() -> float:
    """Epoch timestamp for trace records.

    Traces use ``time.time()`` rather than ``perf_counter`` because span
    timestamps must be comparable *across processes* (the process
    executor builds spans in workers; ``perf_counter`` epochs differ per
    process, the wall clock does not).
    """
    return time.time()


@dataclass
class SpanEvent:
    """One point-in-time observation inside a span."""

    name: str
    ts: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def structure(self) -> Dict[str, Any]:
        """Timestamp-free view for determinism comparisons."""
        return {"name": self.name, "attrs": self.attrs}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {"name": self.name, "ts": self.ts, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            ts=float(data.get("ts", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass
class Span:
    """One pipeline stage: a named interval with events and child spans."""

    name: str
    start_ts: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    end_ts: float = 0.0
    events: List[SpanEvent] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0 until the span is closed)."""
        return max(self.end_ts - self.start_ts, 0.0)

    def structure(self) -> Dict[str, Any]:
        """Timestamp-free tree view for determinism comparisons."""
        return {
            "name": self.name,
            "attrs": self.attrs,
            "events": [event.structure() for event in self.events],
            "children": [child.structure() for child in self.children],
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of the whole subtree."""
        return {
            "name": self.name,
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "attrs": self.attrs,
            "events": [event.to_dict() for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            start_ts=float(data.get("start_ts", 0.0)),
            end_ts=float(data.get("end_ts", 0.0)),
            attrs=dict(data.get("attrs", {})),
            events=[SpanEvent.from_dict(e) for e in data.get("events", [])],
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_events(self, name: str) -> List[SpanEvent]:
        """All events named ``name`` anywhere in the subtree, in order."""
        return [
            event
            for span in self.walk()
            for event in span.events
            if event.name == name
        ]


@dataclass
class PacketTrace:
    """The complete provenance record of one detection->decode job."""

    key: Tuple[int, ...]
    job_id: int
    channel: int
    spreading_factor: Optional[int]
    start_sample: int
    detection_score: float
    sampled: bool
    root: Span
    label: str = ""

    def structure(self) -> Dict[str, Any]:
        """Timestamp-free view: equal across executors for the same stream."""
        return {
            "key": list(self.key),
            "job_id": self.job_id,
            "channel": self.channel,
            "spreading_factor": self.spreading_factor,
            "start_sample": self.start_sample,
            "root": self.root.structure(),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "key": list(self.key),
            "job_id": self.job_id,
            "channel": self.channel,
            "spreading_factor": self.spreading_factor,
            "start_sample": self.start_sample,
            "detection_score": self.detection_score,
            "sampled": self.sampled,
            "label": self.label,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PacketTrace":
        """Inverse of :meth:`to_dict`."""
        sf = data.get("spreading_factor")
        return cls(
            key=tuple(int(k) for k in data.get("key", ())),
            job_id=int(data["job_id"]),
            channel=int(data.get("channel", 0)),
            spreading_factor=None if sf is None else int(sf),
            start_sample=int(data.get("start_sample", 0)),
            detection_score=float(data.get("detection_score", 0.0)),
            sampled=bool(data.get("sampled", True)),
            label=str(data.get("label", "")),
            root=Span.from_dict(data["root"]),
        )


class TraceBuilder:
    """Incremental span-tree builder for one decode job.

    Not thread-safe by design: one builder belongs to exactly one job,
    and a job runs on exactly one worker.  The builder is installed in
    the job's ambient observation scope (:mod:`repro.observe`) for the
    duration of the job, which is how deep pipeline stages
    (:func:`repro.core.sic.phased_sic`, the decoder's conflict loop)
    emit events without threading a handle through every signature.
    """

    def __init__(self, name: str, **attrs: Any) -> None:
        self.root = Span(name=name, start_ts=_wall_clock(), attrs=dict(attrs))
        self._stack: List[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span for the duration of the ``with`` block."""
        child = Span(name=name, start_ts=_wall_clock(), attrs=dict(attrs))
        self.current.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.end_ts = _wall_clock()
            self._stack.pop()

    def event(self, name: str, **attrs: Any) -> SpanEvent:
        """Record an event on the innermost open span."""
        event = SpanEvent(name=name, ts=_wall_clock(), attrs=dict(attrs))
        self.current.events.append(event)
        return event

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the innermost open span."""
        self.current.attrs.update(attrs)

    def finish(self) -> Span:
        """Close every open span (idempotent) and return the root."""
        now = _wall_clock()
        while self._stack:
            span = self._stack.pop()
            if span.end_ts == 0.0:
                span.end_ts = now
        self._stack = []
        return self.root
