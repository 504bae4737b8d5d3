"""The kernel profiler: per-(kernel, shape-class) time and work accounting.

Stage histograms (PR 5) say *which pipeline stage* is slow;
:class:`KernelProfiler` says *which numerical kernel, at which batch
shape, with how many FFTs* -- the per-block complexity accounting a
hardware-or-rewrite decision actually needs.  Kernels are declared with
the ambient API in :mod:`repro.observe`; each declaration opens
a frame on a per-thread stack, so nested kernels account **self time**
(elapsed minus time inside child kernels).  Summed self times therefore
never double-count, and the stack paths double as flamegraph input.

Per (kernel name, shape class) the profiler records:

* ``calls`` -- invocation count
* ``wall_s`` / ``max_wall_s`` -- total and worst-case self time, via
  ``telemetry.clock()`` (the gateway's single timing authority)
* ``fft_count`` / ``fft_points`` -- how many FFTs, totalling how many
  points, the kernel claims to have run (declared, not measured)
* ``bytes_touched`` -- declared working-set traffic

Shape classes are short strings like ``sf7.K4.M64``; dimensions that
vary per call should be bucketed with :func:`shape_bucket` (next power
of two) to keep metric cardinality bounded.

State round-trips as a plain dict (:meth:`state` / :meth:`merge_state`)
so per-job profiles ship back across the process executor in the job's
observation bundle.  The profiler is the one home of the kernel table:
the gateway summary, the run manifest (``profile.kernel.*`` metrics via
:func:`repro.profile.manifest.profiler_metrics`), the collapsed stacks
and the Chrome trace all read it; nothing copies it into telemetry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

#: Format tag stamped on portable profiler state.
PROFILE_FORMAT = "repro-profile/v1"

_clock: Optional[Callable[[], float]] = None


def clock() -> float:
    """The profiler's stopwatch: ``repro.gateway.telemetry.clock``.

    Bound lazily on first use so that importing this module (which the
    core DSP kernels import for :func:`shape_bucket`) never pulls
    in the gateway package at import time -- the dependency arrow stays
    core -> profile, with the single timing authority shared at runtime.
    """
    global _clock
    if _clock is None:
        from repro.gateway.telemetry import clock as telemetry_clock

        _clock = telemetry_clock
    return _clock()

#: Key used when work is reported outside any open kernel frame.
UNTRACKED = "(untracked)"


def shape_bucket(n: int) -> int:
    """Round ``n`` up to the next power of two (shape-class bucketing).

    Batch dimensions like "number of candidate columns" vary call to
    call; bucketing them keeps the (kernel, shape) table small while
    preserving the order of magnitude that matters for complexity
    accounting.
    """
    if n <= 1:
        return 1
    return 1 << int(n - 1).bit_length()


class _Frame:
    """One open kernel invocation on a thread's stack."""

    __slots__ = (
        "name",
        "shape",
        "start",
        "child_s",
        "fft_count",
        "fft_points",
        "bytes_touched",
        "calls",
    )

    def __init__(self, name: str, shape: str) -> None:
        self.name = name
        self.shape = shape
        self.calls = 1
        self.start = clock()
        self.child_s = 0.0
        self.fft_count = 0
        self.fft_points = 0
        self.bytes_touched = 0


class KernelStat:
    """Accumulated totals for one (kernel, shape-class) pair."""

    __slots__ = (
        "calls",
        "wall_s",
        "max_wall_s",
        "fft_count",
        "fft_points",
        "bytes_touched",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.wall_s = 0.0
        self.max_wall_s = 0.0
        self.fft_count = 0
        self.fft_points = 0
        self.bytes_touched = 0

    def add(
        self,
        self_s: float,
        fft_count: int,
        fft_points: int,
        bytes_touched: int,
        calls: int = 1,
    ) -> None:
        """Fold one closed frame's self time and work into the totals."""
        self.calls += calls
        self.wall_s += self_s
        if self_s > self.max_wall_s:
            self.max_wall_s = self_s
        self.fft_count += fft_count
        self.fft_points += fft_points
        self.bytes_touched += bytes_touched

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the portable-state / JSON projection)."""
        return {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "max_wall_s": self.max_wall_s,
            "fft_count": self.fft_count,
            "fft_points": self.fft_points,
            "bytes_touched": self.bytes_touched,
        }

    def merge_dict(self, state: Dict[str, Any]) -> None:
        """Sum another row's :meth:`to_dict` into this one (max of maxes)."""
        self.calls += int(state.get("calls", 0))
        self.wall_s += float(state.get("wall_s", 0.0))
        self.max_wall_s = max(
            self.max_wall_s, float(state.get("max_wall_s", 0.0))
        )
        self.fft_count += int(state.get("fft_count", 0))
        self.fft_points += int(state.get("fft_points", 0))
        self.bytes_touched += int(state.get("bytes_touched", 0))


class KernelProfiler:
    """Thread-safe accumulator of kernel self-time and work estimates.

    One instance can serve a whole gateway run: worker threads each keep
    their own frame stack (keyed by thread id), and the stats table is
    merged under a single lock only when a frame closes.
    """

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], KernelStat] = {}
        self._paths: Dict[str, float] = {}
        self._cpu_s = 0.0
        self._root_wall_s = 0.0
        self._roots = 0
        self._stacks: Dict[int, List[_Frame]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def kernel(
        self,
        name: str,
        shape: str = "",
        fft_count: int = 0,
        fft_points: int = 0,
        bytes_touched: int = 0,
        calls: int = 1,
    ) -> Iterator[None]:
        """Time the wrapped block as ``calls`` invocations of kernel ``name``.

        Nested ``kernel`` blocks subtract their elapsed time from the
        parent's self time, so totals across the table stay additive.
        Work estimates can be supplied up front or accumulated from
        inside the block with :meth:`add`.  ``calls=0`` adds time to an
        invocation counted earlier (a job resumed in another worker).
        """
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        frame = _Frame(name, shape)
        frame.fft_count = fft_count
        frame.fft_points = fft_points
        frame.bytes_touched = bytes_touched
        frame.calls = calls
        stack.append(frame)
        try:
            yield
        finally:
            self._close(ident, stack, frame)

    def _close(
        self, ident: int, stack: List[_Frame], frame: _Frame
    ) -> None:
        elapsed = clock() - frame.start
        # Guard against frames leaked by generator abandonment: unwind
        # to (and including) our own frame rather than trusting the top.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        self_s = max(0.0, elapsed - frame.child_s)
        if stack:
            stack[-1].child_s += elapsed
            path = ";".join(f.name for f in stack) + f";{frame.name}"
        else:
            path = frame.name
            del self._stacks[ident]
        with self._lock:
            stat = self._stats.get((frame.name, frame.shape))
            if stat is None:
                stat = KernelStat()
                self._stats[(frame.name, frame.shape)] = stat
            stat.add(
                self_s,
                frame.fft_count,
                frame.fft_points,
                frame.bytes_touched,
                frame.calls,
            )
            self._paths[path] = self._paths.get(path, 0.0) + self_s
            if not stack:
                self._roots += 1
                self._root_wall_s += elapsed

    def add(
        self,
        fft_count: int = 0,
        fft_points: int = 0,
        bytes_touched: int = 0,
    ) -> None:
        """Attribute extra work to the innermost open kernel frame.

        Useful when a count is only known mid-block (for example the
        number of FFT rows a channelizer flush produced).  Outside any
        frame the work lands on the ``(untracked)`` row instead of being
        lost.
        """
        stack = self._stacks.get(threading.get_ident())
        if stack:
            frame = stack[-1]
            frame.fft_count += fft_count
            frame.fft_points += fft_points
            frame.bytes_touched += bytes_touched
            return
        with self._lock:
            stat = self._stats.get((UNTRACKED, ""))
            if stat is None:
                stat = KernelStat()
                self._stats[(UNTRACKED, "")] = stat
            stat.fft_count += fft_count
            stat.fft_points += fft_points
            stat.bytes_touched += bytes_touched

    def add_cpu(self, cpu_s: float) -> None:
        """Fold one job's measured CPU seconds into the run total."""
        with self._lock:
            self._cpu_s += float(cpu_s)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stats(self) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """The (kernel, shape) table as plain dicts."""
        with self._lock:
            return {key: stat.to_dict() for key, stat in self._stats.items()}

    def total_wall_s(self) -> float:
        """Summed self time across every kernel (never double-counts)."""
        with self._lock:
            return sum(stat.wall_s for stat in self._stats.values())

    def kernel_wall_s(self, name: str) -> float:
        """Summed self time of ``name`` across all shape classes."""
        with self._lock:
            return sum(
                stat.wall_s
                for (kernel, _), stat in self._stats.items()
                if kernel == name
            )

    @property
    def cpu_s(self) -> float:
        """Summed per-job CPU seconds reported via :meth:`add_cpu`."""
        with self._lock:
            return self._cpu_s

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    # ------------------------------------------------------------------
    # Portable state (the executor propagation path)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Picklable, JSON-able state -- ships on ``DecodeOutcome``."""
        with self._lock:
            return {
                "format": PROFILE_FORMAT,
                "kernels": {
                    _join_key(name, shape): stat.to_dict()
                    for (name, shape), stat in sorted(self._stats.items())
                },
                "paths": dict(sorted(self._paths.items())),
                "cpu_s": self._cpu_s,
                "root_wall_s": self._root_wall_s,
                "roots": self._roots,
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another profiler's :meth:`state` into this one (sums)."""
        kernels = state.get("kernels", {})
        paths = state.get("paths", {})
        with self._lock:
            for key, stat_dict in kernels.items():
                name, shape = _split_key(key)
                stat = self._stats.get((name, shape))
                if stat is None:
                    stat = KernelStat()
                    self._stats[(name, shape)] = stat
                stat.merge_dict(stat_dict)
            for path, seconds in paths.items():
                self._paths[path] = self._paths.get(path, 0.0) + float(
                    seconds
                )
            self._cpu_s += float(state.get("cpu_s", 0.0))
            self._root_wall_s += float(state.get("root_wall_s", 0.0))
            self._roots += int(state.get("roots", 0))

    def merge(self, other: "KernelProfiler") -> None:
        """Fold another profiler instance into this one."""
        self.merge_state(other.state())

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack text (``a;b;c <microseconds>`` per line).

        Directly consumable by flamegraph.pl / speedscope / inferno;
        the "sample count" column is integer microseconds of self time.
        """
        with self._lock:
            paths = dict(self._paths)
        lines = []
        for path in sorted(paths):
            micros = int(round(paths[path] * 1e6))
            lines.append(f"{path} {max(micros, 1)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def chrome_events(
        self, pid: int = 0, tid: int = 9999
    ) -> List[Dict[str, Any]]:
        """Aggregate flame strip as Chrome trace ``X`` events.

        Real per-invocation timestamps are not kept (that is the span
        tracer's job); instead the kernel tree is laid out once, widths
        proportional to cumulative wall time, on a dedicated track --
        the Perfetto rendering of :meth:`collapsed`.
        """
        with self._lock:
            paths = dict(self._paths)
        tree = _path_tree(paths)
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": "kernel profile (aggregate)"},
            }
        ]
        _emit_flame(tree, 0.0, pid, tid, events)
        return events


def _join_key(name: str, shape: str) -> str:
    return f"{name}|{shape}" if shape else name


def _split_key(key: str) -> Tuple[str, str]:
    name, _, shape = key.partition("|")
    return name, shape


class _Node:
    __slots__ = ("name", "self_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_s = 0.0
        self.children: Dict[str, "_Node"] = {}

    @property
    def total_s(self) -> float:
        return self.self_s + sum(
            child.total_s for child in self.children.values()
        )


def _path_tree(paths: Dict[str, float]) -> Dict[str, _Node]:
    roots: Dict[str, _Node] = {}
    for path in sorted(paths):
        parts = path.split(";")
        level = roots
        node: Optional[_Node] = None
        for part in parts:
            node = level.get(part)
            if node is None:
                node = _Node(part)
                level[part] = node
            level = node.children
        assert node is not None
        node.self_s += paths[path]
    return roots


def _emit_flame(
    level: Dict[str, _Node],
    start_s: float,
    pid: int,
    tid: int,
    events: List[Dict[str, Any]],
) -> None:
    cursor = start_s
    for name in sorted(level):
        node = level[name]
        total = node.total_s
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": "kernel",
                "ts": cursor * 1e6,
                "dur": total * 1e6,
                "args": {"self_ms": node.self_s * 1e3},
            }
        )
        _emit_flame(node.children, cursor, pid, tid, events)
        cursor += total
