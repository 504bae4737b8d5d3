"""Layer spans recorded from outside the system, by wrapping its entry points.

A :class:`Tracer` replaces a public function or method with a wrapper that
times each call and restores the original afterwards; nothing under
``src/`` knows it is being traced.  Each call becomes a span -- name,
start, end, parent span and request id -- and adds to its layer's
aggregate: calls, wall time, self time (duration minus the time covered
by child spans on the same thread) and, where asked, thread CPU time, so
``wall_s - cpu_s`` is time spent waiting for the GIL or a lock.

Parents are tracked per thread: a decode job running on a pool thread is
a root span there, tied to its dispatch by the request id (the job id).
Spans stay in memory and are exported once, as Chrome trace-event JSON.

The server layers see ~1.5M calls per run, too many to keep as spans.
Their aggregates count every call; spans are kept for a deterministic
1-in-``sample_every`` sample of requests keyed by ``(device_addr, fcnt)``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

Observe = Callable[["LayerStats", Any, Tuple[Any, ...]], None]


@dataclass
class LayerStats:
    """Aggregates of every call into one layer (on one thread, until merged)."""

    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    raised: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    values: Dict[str, List[float]] = field(default_factory=dict)
    sets: Dict[str, set] = field(default_factory=dict)

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def member(self, name: str, item: Any) -> bool:
        """Add ``item`` to the named set; True if it was already there."""
        seen = self.sets.setdefault(name, set())
        if item in seen:
            return True
        seen.add(item)
        return False

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.self_s += other.self_s
        self.cpu_s += other.cpu_s
        self.raised += other.raised
        for name, amount in other.counters.items():
            self.add(name, amount)
        for name, values in other.values.items():
            self.values.setdefault(name, []).extend(values)
        for name, items in other.sets.items():
            self.sets.setdefault(name, set()).update(items)


class _ThreadState:
    """One thread's open-span stack, layer aggregates and root coverage."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[List[Any]] = []  # [span_id or None, request, child_s]
        self.stats: Dict[str, LayerStats] = {}
        self.root_s = 0.0  # time covered by this thread's root spans


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    span_id: int
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: Any
    thread: int


def sample_request(request: Any, every: int) -> bool:
    """Deterministic 1-in-``every`` choice of a ``(device_addr, fcnt)`` key."""
    return zlib.crc32(b"%d:%d" % request) % every == 0


class Tracer:
    """Installs timing wrappers and collects their spans and aggregates.

    ``clock`` and ``cpu_clock`` are injectable so tests can drive the
    self-time accounting with synthetic timestamps.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
        sample_every: int = 64,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self.sample_every = sample_every
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._saved: List[Tuple[Any, str, Any]] = []
        self.main_thread = threading.get_ident()
        self.window: Tuple[float, float] = (0.0, 0.0)
        self.process_cpu_s = 0.0

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            self._threads.append(state)
            return state

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        request: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
        observe: Optional[Observe] = None,
        cpu: bool = False,
        sampled: bool = False,
        durations: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper for ``layer``.

        ``request`` extracts the request id from the call's arguments
        (else the parent span's is inherited); ``observe`` reads the
        result into the layer's counters; ``sampled`` keeps a root span
        only for the sampled requests; ``durations`` keeps every call's
        duration for percentiles.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        clock = self._clock
        cpu_clock = self._cpu_clock
        every = self.sample_every

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if request is not None:
                req = request(args)
            else:
                req = parent[1] if parent is not None else None
            if parent is not None:
                keep = parent[0] is not None
            else:
                keep = not sampled or sample_request(req, every)
            frame = [next(tracer._ids) if keep else None, req, 0.0]
            stack.append(frame)
            cpu0 = cpu_clock() if cpu else 0.0
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            else:
                raised = False
            finally:
                end = clock()
                cpu1 = cpu_clock() if cpu else 0.0
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                else:
                    state.root_s += duration
                stats = state.stats.get(layer)
                if stats is None:
                    stats = state.stats[layer] = LayerStats()
                stats.calls += 1
                stats.wall_s += duration
                stats.self_s += duration - frame[2]
                stats.cpu_s += cpu1 - cpu0
                stats.raised += raised
                if durations:
                    stats.sample("duration_s", duration)
                if keep:
                    tracer.spans.append(
                        Span(
                            frame[0],
                            layer,
                            start,
                            end,
                            parent[0] if parent is not None else None,
                            req,
                            state.ident,
                        )
                    )
            if observe is not None:
                observe(stats, result, args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the measured window (after inputs are generated)."""
        self.process_cpu_s = time.process_time()
        self.window = (self._clock(), 0.0)

    def stop(self) -> None:
        """Close the measured window."""
        self.window = (self.window[0], self._clock())
        self.process_cpu_s = time.process_time() - self.process_cpu_s

    @property
    def window_s(self) -> float:
        return self.window[1] - self.window[0]

    def layers(self) -> Dict[str, LayerStats]:
        """Every layer's aggregates, merged across threads."""
        merged: Dict[str, LayerStats] = {}
        for state in self._threads:
            for layer, stats in state.stats.items():
                merged.setdefault(layer, LayerStats()).merge(stats)
        return merged

    def unattributed_s(self) -> float:
        """Main-thread time in the window covered by no layer span."""
        covered = sum(s.root_s for s in self._threads if s.ident == self.main_thread)
        return self.window_s - covered

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = self.window[0]
        tids = {self.main_thread: 0}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.thread, len(tids))
            events.append(
                {
                    "name": span.layer,
                    "cat": span.layer.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {
                        "id": span.span_id,
                        "parent": span.parent,
                        "request": span.request,
                    },
                }
            )
        names = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": "main" if tid == 0 else f"thread-{tid}"}}
            for tid in tids.values()
        ]
        return {"traceEvents": names + events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# The system's entry points, by layer
# ----------------------------------------------------------------------
def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:func"`` -> (owner, attr)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _job_id(position: int) -> Callable[[Tuple[Any, ...]], Any]:
    return lambda args: args[position].job_id


def _frame_key(args: Tuple[Any, ...]) -> Tuple[int, int]:
    return (args[1].device_addr, args[1].fcnt)


def _observe_ring_append(stats: LayerStats, evicted: int, args: Tuple[Any, ...]) -> None:
    stats.add("evicted_samples", evicted)
    stats.add("appended", len(args[1]))
    stats.member("rings", id(args[0]))


def _observe_scan(stats: LayerStats, next_job_id: int, args: Tuple[Any, ...]) -> None:
    stats.add("jobs", next_job_id - args[3])
    stats.member("scanners", id(args[0]))


def _observe_detect(stats: LayerStats, result: Any, args: Tuple[Any, ...]) -> None:
    stats.add("samples_scanned", len(args[1]))
    stats.add("hits", bool(result.detected))


def _observe_decode(stats: LayerStats, outcome: Any, args: Tuple[Any, ...]) -> None:
    stats.sample("queue_wait_s", outcome.queue_wait_s)
    stats.add("crc_ok", bool(outcome.crc_ok))
    stats.add("errors", outcome.error is not None)


def _observe_drain(stats: LayerStats, outcomes: Any, args: Tuple[Any, ...]) -> None:
    stats.add("dropped", args[0].dropped)


def _observe_tier0(stats: LayerStats, window: Any, args: Tuple[Any, ...]) -> None:
    stats.add("escalated", window.tier == "full")


def _observe_dedup(stats: LayerStats, matured: Any, args: Tuple[Any, ...]) -> None:
    stats.add("duplicates", stats.member("keys", args[1].key))


def _observe_adr(stats: LayerStats, commands: Any, args: Tuple[Any, ...]) -> None:
    stats.add("commands", len(commands))


#: (entry point, layer, wrap options).  The layer names are the repo
#: modules' short names; ``README.md`` maps each to what it should move.
TARGETS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("repro.gateway.channelizer:PolyphaseChannelizer.push", "channelizer", {"cpu": True}),
    ("repro.gateway.channelizer:PolyphaseChannelizer.flush", "channelizer", {"cpu": True}),
    ("repro.gateway.ring:SampleRing.append", "ring", {"observe": _observe_ring_append}),
    ("repro.gateway.ring:SampleRing.consume", "ring", {}),
    ("repro.gateway.runtime:StreamScanner.scan", "scan", {"observe": _observe_scan}),
    ("repro.gateway.runtime:sliding_packet_search", "detect",
     {"cpu": True, "observe": _observe_detect}),
    ("repro.gateway.workers:DecodeWorkerPool.submit", "dispatch", {"request": _job_id(1)}),
    ("repro.gateway.workers:DecodeWorkerPool.close", "drain", {"observe": _observe_drain}),
    ("repro.gateway.workers:decode_packet_window", "decode",
     {"cpu": True, "request": _job_id(0), "observe": _observe_decode}),
    ("repro.core.cascade:CascadePipeline.decode_window", "tier0",
     {"cpu": True, "observe": _observe_tier0}),
    ("repro.core.cascade:ChoirPipeline.decode_window", "full", {"cpu": True}),
    ("repro.core.cascade:align_to_window_grid", "align", {}),
    ("repro.core.decoder:ChoirDecoder.decode", "choir", {"cpu": True}),
    ("repro.server.server:NetworkServer.handle_uplink", "server",
     {"request": _frame_key, "sampled": True, "durations": True}),
    ("repro.server.dedup:FrameDeduplicator.offer", "dedup",
     {"request": _frame_key, "sampled": True, "observe": _observe_dedup}),
    ("repro.server.sessions:DeviceRegistry.observe", "sessions", {}),
    ("repro.server.adr:AdrEngine.observe", "adr", {"observe": _observe_adr}),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS`."""
    for path, layer, options in TARGETS:
        owner, attr = _resolve(path)
        tracer.wrap(owner, attr, layer, **options)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric table of one traced run: name -> (value, unit).

    Layers the workload never called read zero.  Every layer time total
    ``<layer>.<x>_s`` also appears as ``<layer>.<x>_share``, its fraction
    of the run's wall time (per-call percentiles have no share).
    ``trace_overhead`` needs an untraced run and is added by the caller.
    """
    layers = tracer.layers()

    def get(layer: str) -> LayerStats:
        return layers.get(layer, LayerStats())

    chan, ring, scan, detect = get("channelizer"), get("ring"), get("scan"), get("detect")
    dispatch, drain, decode = get("dispatch"), get("drain"), get("decode")
    tier0, full, align, choir = get("tier0"), get("full"), get("align"), get("choir")
    server, dedup, sessions, adr = get("server"), get("dedup"), get("sessions"), get("adr")
    scanners = len(scan.sets.get("scanners", ()))
    rings = len(ring.sets.get("rings", ()))
    appended_per_scanner = ring.counters.get("appended", 0) * _ratio(scanners, rings)
    waits = decode.values.get("queue_wait_s", [])
    calls = server.values.get("duration_s", [])
    count, sec, ratio = "count", "s", "fraction"
    metrics = {
        "channelizer.calls": (chan.calls, count),
        "channelizer.wall_s": (chan.wall_s, sec),
        "channelizer.cpu_s": (chan.cpu_s, sec),
        "ring.calls": (ring.calls, count),
        "ring.wall_s": (ring.wall_s, sec),
        "ring.evicted_samples": (ring.counters.get("evicted_samples", 0), count),
        "scan.calls": (scan.calls, count),
        "scan.self_s": (scan.self_s, sec),
        "scan.jobs": (scan.counters.get("jobs", 0), count),
        "detect.calls": (detect.calls, count),
        "detect.wall_s": (detect.wall_s, sec),
        "detect.cpu_s": (detect.cpu_s, sec),
        "detect.samples_scanned": (detect.counters.get("samples_scanned", 0), count),
        "detect.rescan_ratio": (
            _ratio(detect.counters.get("samples_scanned", 0), appended_per_scanner),
            ratio,
        ),
        "detect.hit_ratio": (_ratio(detect.counters.get("hits", 0), detect.calls), ratio),
        "dispatch.calls": (dispatch.calls, count),
        "dispatch.wall_s": (dispatch.wall_s, sec),
        "dispatch.dropped": (drain.counters.get("dropped", 0), count),
        "decode.calls": (decode.calls, count),
        "decode.wall_s": (decode.wall_s, sec),
        "decode.cpu_s": (decode.cpu_s, sec),
        "decode.queue_wait_p50_s": (_percentile(waits, 50), sec),
        "decode.queue_wait_p90_s": (_percentile(waits, 90), sec),
        "decode.useful_ratio": (_ratio(decode.counters.get("crc_ok", 0), decode.calls), ratio),
        "decode.errors": (decode.counters.get("errors", 0) + decode.raised, count),
        "drain.wall_s": (drain.wall_s, sec),
        "tier0.calls": (tier0.calls, count),
        "tier0.self_s": (tier0.self_s, sec),
        "tier0.escalation_ratio": (
            _ratio(tier0.counters.get("escalated", 0), tier0.calls),
            ratio,
        ),
        "full.calls": (full.calls, count),
        "full.wall_s": (full.wall_s, sec),
        "full.cpu_s": (full.cpu_s, sec),
        "align.calls": (align.calls, count),
        "align.wall_s": (align.wall_s, sec),
        "choir.calls": (choir.calls, count),
        "choir.wall_s": (choir.wall_s, sec),
        "choir.cpu_s": (choir.cpu_s, sec),
        "server.calls": (server.calls, count),
        "server.self_s": (server.self_s, sec),
        "server.call_p50_s": (_percentile(calls, 50), sec),
        "server.call_p99_s": (_percentile(calls, 99), sec),
        "dedup.calls": (dedup.calls, count),
        "dedup.wall_s": (dedup.wall_s, sec),
        "dedup.duplicate_ratio": (
            _ratio(dedup.counters.get("duplicates", 0), dedup.calls),
            ratio,
        ),
        "sessions.calls": (sessions.calls, count),
        "sessions.wall_s": (sessions.wall_s, sec),
        "adr.calls": (adr.calls, count),
        "adr.wall_s": (adr.wall_s, sec),
        "adr.commands": (adr.counters.get("commands", 0), count),
        "process.cpu_util": (_ratio(tracer.process_cpu_s, tracer.window_s), ratio),
        "unattributed.wall_s": (tracer.unattributed_s(), sec),
    }
    shares = {
        name[: -len("_s")] + "_share": (_ratio(value, tracer.window_s), ratio)
        for name, (value, unit) in metrics.items()
        if unit == sec and not name.split(".")[1].startswith(("queue_wait", "call_"))
    }
    return {**metrics, **shares}
