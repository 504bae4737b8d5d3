"""Lightweight per-stage telemetry for the streaming gateway.

Three instrument kinds, all thread-safe and allocation-light so they can
sit on the hot path of every chunk and every decode job:

* :class:`Counter` -- monotonic event counts (samples ingested, packets
  detected, jobs dropped).
* :class:`Gauge` -- a sampled level with its running peak (queue depth).
* :class:`DurationHistogram` -- per-stage latencies with percentile
  queries (detect time per chunk, queue wait, decode time).  Memory is
  bounded: past ``max_samples`` recordings the histogram switches to
  reservoir sampling (count / total / max stay exact).

:class:`Telemetry` is the registry tying them together: stages create
instruments by name on demand, the runtime snapshots everything into a
plain dict, exports JSON-lines and Prometheus text exposition for
machines, and renders a human summary table for the CLI.  Registries
also support a portable ``state()`` / ``merge()`` round trip, which is
how per-job telemetry recorded inside process-executor workers flows
back into the parent's registry.

This module (plus ``repro/trace/``) owns the gateway's stopwatch:
everything else under ``gateway/`` times itself through :func:`clock`
(repro-lint rule R008 enforces this).
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

#: Percentiles reported for every duration histogram.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)

#: Raw samples a duration histogram keeps before reservoir sampling
#: kicks in (64k float64 = 512 KiB per instrument, worst case).
DEFAULT_HISTOGRAM_CAP = 65536


def clock() -> float:
    """The gateway's monotonic stopwatch (seconds, arbitrary epoch).

    Single timing authority for every duration measured under
    ``gateway/``: stages call this instead of ``time.perf_counter`` so
    the clock can be reasoned about (and faked) in one place.
    """
    return time.perf_counter()


def shard_label(channel: int, spreading_factor: int) -> str:
    """Metric-name prefix for one (channel, SF) shard: ``ch{c}.sf{s}``.

    The gateway prefixes every per-shard instrument with this
    label (for example ``ch3.sf8.decode.crc_ok``), which keeps shard
    metrics greppable alongside the shared dotted ``stage.metric`` names.
    """
    return f"ch{channel}.sf{spreading_factor}"


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` events (``n`` must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of this instrument."""
        return {"metric": self.name, "type": "counter", "value": self.value}

    def state(self) -> Dict[str, Any]:
        """Portable state for cross-process merging."""
        return {"type": "counter", "value": self.value}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another counter's state into this one (sums)."""
        self.inc(int(state["value"]))


class Gauge:
    """A sampled level that also remembers its peak."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self._value = float(value)
            if value > self._peak:
                self._peak = float(value)

    @property
    def value(self) -> float:
        """Most recently recorded level."""
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        """Highest level ever recorded."""
        with self._lock:
            return self._peak

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of this instrument."""
        with self._lock:
            return {
                "metric": self.name,
                "type": "gauge",
                "value": self._value,
                "peak": self._peak,
            }

    def state(self) -> Dict[str, Any]:
        """Portable state for cross-process merging."""
        with self._lock:
            return {"type": "gauge", "value": self._value, "peak": self._peak}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another gauge's state in: last value wins, peaks max."""
        with self._lock:
            self._value = float(state["value"])
            self._peak = max(self._peak, float(state.get("peak", 0.0)))


class DurationHistogram:
    """Recorded durations (seconds) with percentile queries.

    Keeps raw samples up to ``max_samples`` -- gateway runs are short
    enough that exact percentiles beat bucketing error -- then degrades
    gracefully to uniform reservoir sampling (Algorithm R), so memory is
    bounded however long the gateway streams.  Count, total and max are
    tracked exactly regardless; only percentiles become estimates past
    the cap.  The reservoir RNG is seeded from the metric name, keeping
    runs with a fixed stream reproducible.
    """

    def __init__(
        self, name: str, max_samples: int = DEFAULT_HISTOGRAM_CAP
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self._values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._offered = 0
        # Reservoir sampling needs cheap stdlib randomness, not the decode
        # seed tree; seeding from the metric name keeps it reproducible.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))  # noqa: R010
        self._lock = threading.Lock()

    def _offer(self, value: float) -> None:
        """Reservoir insert (Algorithm R); caller holds the lock."""
        self._offered += 1
        if len(self._values) < self.max_samples:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self._offered)
            if slot < self.max_samples:
                self._values[slot] = value

    def record(self, seconds: float) -> None:
        """Record one duration."""
        value = float(seconds)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            self._offer(value)

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager recording the wrapped block's wall time."""
        start = clock()
        try:
            yield
        finally:
            self.record(clock() - start)

    @property
    def count(self) -> int:
        """Number of recorded durations (exact, even past the cap)."""
        with self._lock:
            return self._count

    @property
    def n_retained(self) -> int:
        """Samples currently held (== count until the reservoir caps)."""
        with self._lock:
            return len(self._values)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile duration, or 0.0 when empty.

        Exact below ``max_samples`` recordings, a uniform-reservoir
        estimate above.
        """
        with self._lock:
            if not self._values:
                return 0.0
            return float(np.percentile(self._values, p))

    def mean(self) -> float:
        """Mean duration (exact), or 0.0 when empty."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def total(self) -> float:
        """Sum of all recorded durations (exact)."""
        with self._lock:
            return self._total

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: count, mean, max and summary percentiles."""
        with self._lock:
            values = list(self._values)
            count, total, peak = self._count, self._total, self._max
        out: Dict[str, Any] = {
            "metric": self.name,
            "type": "histogram",
            "count": count,
            "mean_s": total / count if count else 0.0,
            "max_s": peak,
            "total_s": total,
        }
        for p in SUMMARY_PERCENTILES:
            key = f"p{p:g}_s"
            out[key] = float(np.percentile(values, p)) if values else 0.0
        return out

    def state(self) -> Dict[str, Any]:
        """Portable state for cross-process merging."""
        with self._lock:
            return {
                "type": "histogram",
                "values": list(self._values),
                "count": self._count,
                "total_s": self._total,
                "max_s": self._max,
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's state in.

        Exact scalars add exactly; the other side's (possibly sampled)
        values feed this reservoir one by one.  Below the cap on both
        sides the merge is lossless.
        """
        values = [float(v) for v in state.get("values", [])]
        with self._lock:
            self._count += int(state["count"])
            self._total += float(state["total_s"])
            self._max = max(self._max, float(state.get("max_s", 0.0)))
            for value in values:
                self._offer(value)


#: Instrument classes by the ``type`` tag used in portable state dicts.
_STATE_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": DurationHistogram,
}


class Telemetry:
    """Registry of named instruments shared by all gateway stages.

    Instrument names are dotted ``stage.metric`` strings (for example
    ``detect.chunk_s`` or ``dispatch.dropped``); creation is idempotent,
    so stages do not coordinate beyond agreeing on names.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"telemetry metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        instrument = self._get(name, Counter)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        instrument = self._get(name, Gauge)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str) -> DurationHistogram:
        """The duration histogram named ``name``, created on first use."""
        instrument = self._get(name, DurationHistogram)
        assert isinstance(instrument, DurationHistogram)
        return instrument

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into the histogram named ``name``."""
        with self.histogram(name).time():
            yield

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Dict[str, Any]]:
        """Portable (picklable, JSON-able) state of every instrument.

        The worker side of the process executor ships this back with
        each decode outcome; :meth:`merge` folds it into the parent.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.state() for inst in instruments}

    def merge(
        self, state: Dict[str, Dict[str, Any]], prefix: str = ""
    ) -> None:
        """Fold a :meth:`state` dict from another registry into this one.

        Counters and histogram scalars add exactly, so serial and
        process executors agree on every total.

        ``prefix`` namespaces every merged instrument (for example
        ``"gw1."``), which is how the network server absorbs N gateways'
        registries without their identically-named shard metrics
        colliding: ``gw1.ch3.sf8.decode.crc_ok`` and
        ``gw2.ch3.sf8.decode.crc_ok`` stay distinct and export with
        ``gateway="1"`` / ``gateway="2"`` labels.
        """
        for name, inst_state in state.items():
            kind = _STATE_KINDS.get(inst_state.get("type", ""))
            if kind is None:
                raise ValueError(
                    f"unknown instrument type in state for {name!r}: "
                    f"{inst_state.get('type')!r}"
                )
            self._get(prefix + name, kind).merge_state(inst_state)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments' states, keyed by metric name."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.snapshot() for inst in instruments}

    def jsonl(self) -> str:
        """One JSON object per line per instrument (machine export)."""
        rows = [
            json.dumps(state, sort_keys=True)
            for _, state in sorted(self.snapshot().items())
        ]
        return "\n".join(rows) + ("\n" if rows else "")

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`jsonl` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.jsonl())

    def prometheus(self) -> str:
        """Prometheus text exposition of every instrument.

        Dotted names map to sanitized metric families with shard parts
        extracted as labels: ``ch3.sf8.decode.crc_ok`` becomes
        ``repro_decode_crc_ok_total{channel="3",sf="8"}``.  Counters get
        ``_total``; gauges export the level plus a ``_peak`` family;
        duration histograms export as summaries in seconds (quantiles
        from :data:`SUMMARY_PERCENTILES`, the observed max as
        ``quantile="1"``, plus ``_count`` and ``_sum``).
        """
        families: Dict[str, Tuple[str, List[str]]] = {}

        def sample(
            family: str,
            prom_type: str,
            labels: Dict[str, str],
            value: float,
        ) -> None:
            kind, lines = families.setdefault(family, (prom_type, []))
            if kind != prom_type:
                raise ValueError(
                    f"metric family {family!r} exported as both "
                    f"{kind} and {prom_type}"
                )
            rendered = ",".join(
                f'{key}="{labels[key]}"' for key in sorted(labels)
            )
            label_part = f"{{{rendered}}}" if rendered else ""
            lines.append(f"{family}{label_part} {value:g}")

        for name, state in sorted(self.snapshot().items()):
            base, labels = _prometheus_name(name)
            if state["type"] == "counter":
                sample(f"{base}_total", "counter", labels, state["value"])
            elif state["type"] == "gauge":
                sample(base, "gauge", labels, state["value"])
                sample(f"{base}_peak", "gauge", labels, state["peak"])
            else:
                family = _seconds_family(base)
                for p in SUMMARY_PERCENTILES:
                    quantile = {"quantile": f"{p / 100.0:g}", **labels}
                    sample(family, "summary", quantile, state[f"p{p:g}_s"])
                # The exact observed max is the phi=1 quantile.
                sample(
                    family,
                    "summary",
                    {"quantile": "1", **labels},
                    state["max_s"],
                )
                sample(f"{family}_count", "summary", labels, state["count"])
                sample(f"{family}_sum", "summary", labels, state["total_s"])
        out: List[str] = []
        typed: set = set()
        for family in sorted(families):
            prom_type, lines = families[family]
            # _count/_sum belong to their summary family's TYPE line.
            root = re.sub(r"_(count|sum)$", "", family)
            if prom_type == "summary" and root in families:
                family_type_key = root
            else:
                family_type_key = family
            if family_type_key not in typed:
                typed.add(family_type_key)
                out.append(f"# TYPE {family_type_key} {prom_type}")
            out.extend(lines)
        return "\n".join(out) + ("\n" if out else "")

    def write_prometheus(self, path: str) -> None:
        """Write :meth:`prometheus` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.prometheus())

    def summary(self) -> str:
        """Human-readable table of every instrument."""
        states = sorted(self.snapshot().items())
        if not states:
            return "(no telemetry recorded)"
        lines = []
        width = max(len(name) for name, _ in states)
        for name, state in states:
            label = name.ljust(width)
            if state["type"] == "counter":
                lines.append(f"{label}  {state['value']}")
            elif state["type"] == "gauge":
                lines.append(
                    f"{label}  {state['value']:g} (peak {state['peak']:g})"
                )
            else:
                lines.append(
                    f"{label}  n={state['count']}"
                    f"  p50={1e3 * state['p50_s']:.2f}ms"
                    f"  p95={1e3 * state['p95_s']:.2f}ms"
                    f"  max={1e3 * state['max_s']:.2f}ms"
                )
        return "\n".join(lines)


_SHARD_PART = re.compile(r"(ch|sf|gw)(\d+)$")
_SHARD_LABELS = {"ch": "channel", "sf": "sf", "gw": "gateway"}


def _prometheus_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Map a dotted instrument name to (family base, labels).

    ``ch{c}`` / ``sf{s}`` / ``gw{g}`` dotted parts become ``channel`` /
    ``sf`` / ``gateway`` labels; the remaining parts join with
    underscores under the ``repro_`` namespace, sanitized to the
    Prometheus charset.
    """
    labels: Dict[str, str] = {}
    rest: List[str] = []
    for part in name.split("."):
        match = _SHARD_PART.match(part)
        if match is not None and match.group(0) == part:
            labels[_SHARD_LABELS[match.group(1)]] = match.group(2)
        else:
            rest.append(re.sub(r"[^a-zA-Z0-9_]", "_", part))
    base = "_".join(part for part in rest if part) or "metric"
    if not re.match(r"[a-zA-Z_]", base):
        base = f"_{base}"
    return f"repro_{base}", labels


def _seconds_family(base: str) -> str:
    """Duration-family name: strip the ``_s`` suffix, append ``_seconds``."""
    if base.endswith("_s"):
        base = base[: -len("_s")]
    return f"{base}_seconds"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back to ``{sample-name: value}``.

    The inverse of :meth:`Telemetry.prometheus` for round-trip tests and
    quick scripting; keys keep their label part verbatim
    (``repro_decode_crc_ok_total{channel="3",sf="8"}``).
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed exposition line: {line!r}")
        samples[key] = float(value)
    return samples
