"""Decode provenance tracing and packet forensics.

This package is the observability layer under the gateway's telemetry
registry: span trees per detection->decode job (:mod:`repro.trace.model`),
deterministic sampling and collection (:mod:`repro.trace.recorder`),
JSONL / Chrome trace-event export (:mod:`repro.trace.export`), and
per-packet drop-reason post-mortems (:mod:`repro.trace.forensics`).
Deep pipeline stages reach a job's span tree through the ambient
observation context, :mod:`repro.observe`.
"""

from repro.trace.export import (
    TRACE_FORMAT,
    chrome_trace,
    load_packets,
    load_trace,
    to_jsonl,
    trace_data,
    write_trace,
)
from repro.trace.forensics import ForensicsReport, PostMortem, analyze
from repro.trace.model import PacketTrace, Span, SpanEvent, TraceBuilder
from repro.trace.recorder import (
    TraceConfig,
    TraceDirective,
    TraceRecorder,
    sample_key,
)

__all__ = [
    "TRACE_FORMAT",
    "ForensicsReport",
    "PacketTrace",
    "PostMortem",
    "Span",
    "SpanEvent",
    "TraceBuilder",
    "TraceConfig",
    "TraceDirective",
    "TraceRecorder",
    "analyze",
    "chrome_trace",
    "load_packets",
    "load_trace",
    "sample_key",
    "to_jsonl",
    "trace_data",
    "write_trace",
]
