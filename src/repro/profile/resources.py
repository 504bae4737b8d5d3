"""Process-level resource accounting: CPU vs wall, RSS, allocations.

This module (and only this module -- repro-lint rule R013) is allowed
to touch ``time.process_time``, ``resource`` and ``tracemalloc``;
everything else routes through :class:`ResourceAccountant` or the
:func:`process_cpu` / :func:`peak_rss_kb` wrappers, so the places that
can perturb timing or start allocation tracing stay auditable.

The accountant brackets a run: CPU seconds (``time.process_time`` --
process-wide, so it aggregates every worker thread -- plus child
processes reaped inside the bracket, such as a process pool's workers)
against wall seconds from ``telemetry.clock()``, the OS-reported peak
RSS of this process and of its largest reaped worker, and -- only when
explicitly requested, because tracing costs real time -- the
``tracemalloc`` top-N allocation sites.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.gateway.telemetry import clock

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]


def process_cpu() -> float:
    """CPU seconds consumed by this process (user + system, all threads)."""
    return time.process_time()


def reaped_children_cpu() -> float:
    """User + system CPU seconds of terminated, waited-for children (0 if unsupported)."""
    if _resource is None:
        return 0.0
    usage = _resource.getrusage(_resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _max_rss_kb(who: str) -> int:
    """``getrusage(resource.<who>).ru_maxrss`` in KiB (0 if unsupported)."""
    if _resource is None:
        return 0
    peak = _resource.getrusage(getattr(_resource, who)).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return int(peak)


def peak_rss_kb() -> int:
    """OS-reported peak resident set size in KiB (0 where unsupported)."""
    return _max_rss_kb("RUSAGE_SELF")


def peak_child_rss_kb() -> int:
    """Peak RSS in KiB of the largest reaped child (0 where unsupported).

    ``RUSAGE_CHILDREN`` reports the maximum over every terminated,
    waited-for child -- a process pool's workers once it is shut down --
    since this process started, not a sum and not per bracket.
    """
    return _max_rss_kb("RUSAGE_CHILDREN")


@dataclass(frozen=True)
class AllocationSite:
    """One ``tracemalloc`` aggregation row (file:line, size, count)."""

    site: str
    size_kb: float
    count: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form."""
        return {"site": self.site, "size_kb": self.size_kb, "count": self.count}


@dataclass(frozen=True)
class ResourceSummary:
    """What one bracketed run cost the process.

    ``worker_peak_rss_kb`` is the largest reaped worker's peak RSS
    (:func:`peak_child_rss_kb`): a process pool's decode memory, which
    ``peak_rss_kb`` (this process alone) does not count.
    """

    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    alloc_peak_kb: float = 0.0
    top_allocations: List[AllocationSite] = field(default_factory=list)
    worker_peak_rss_kb: int = 0

    @property
    def utilization(self) -> float:
        """CPU seconds per wall second (>1 means real parallelism)."""
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (see :func:`summary_from_dict`)."""
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "utilization": self.utilization,
            "peak_rss_kb": self.peak_rss_kb,
            "worker_peak_rss_kb": self.worker_peak_rss_kb,
            "alloc_peak_kb": self.alloc_peak_kb,
            "top_allocations": [
                site.to_dict() for site in self.top_allocations
            ],
        }


def summary_from_dict(state: Dict[str, Any]) -> ResourceSummary:
    """Rehydrate a :class:`ResourceSummary` from its ``to_dict`` form."""
    return ResourceSummary(
        wall_s=float(state.get("wall_s", 0.0)),
        cpu_s=float(state.get("cpu_s", 0.0)),
        peak_rss_kb=int(state.get("peak_rss_kb", 0)),
        worker_peak_rss_kb=int(state.get("worker_peak_rss_kb", 0)),
        alloc_peak_kb=float(state.get("alloc_peak_kb", 0.0)),
        top_allocations=[
            AllocationSite(
                site=str(row.get("site", "?")),
                size_kb=float(row.get("size_kb", 0.0)),
                count=int(row.get("count", 0)),
            )
            for row in state.get("top_allocations", [])
        ],
    )


class ResourceAccountant:
    """Bracket a run and report what it cost.

    ``alloc_top_n > 0`` turns on ``tracemalloc`` for the bracketed
    region (the ``--profile-alloc`` path); it is deliberately opt-in
    because tracing allocations slows the traced code several-fold.  If
    tracemalloc was already running (say, an outer accountant), the
    inner one leaves it untouched.
    """

    def __init__(self, alloc_top_n: int = 0) -> None:
        self.alloc_top_n = int(alloc_top_n)
        self._wall_start: Optional[float] = None
        self._cpu_start = 0.0
        self._children_cpu_start = 0.0
        self._started_tracing = False
        self.summary: Optional[ResourceSummary] = None

    def start(self) -> "ResourceAccountant":
        """Begin the bracket (idempotent restart resets the clocks)."""
        if self.alloc_top_n > 0 and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self._cpu_start = process_cpu()
        self._children_cpu_start = reaped_children_cpu()
        self._wall_start = clock()
        return self

    def stop(self) -> ResourceSummary:
        """Close the bracket and return (and retain) the summary."""
        if self._wall_start is None:
            raise RuntimeError("ResourceAccountant.stop() before start()")
        wall_s = clock() - self._wall_start
        cpu_s = process_cpu() - self._cpu_start
        cpu_s += reaped_children_cpu() - self._children_cpu_start
        alloc_peak_kb = 0.0
        top: List[AllocationSite] = []
        if self.alloc_top_n > 0 and tracemalloc.is_tracing():
            _, peak_bytes = tracemalloc.get_traced_memory()
            alloc_peak_kb = peak_bytes / 1024.0
            stats = tracemalloc.take_snapshot().statistics("lineno")
            for stat in stats[: self.alloc_top_n]:
                frame = stat.traceback[0]
                top.append(
                    AllocationSite(
                        site=f"{frame.filename}:{frame.lineno}",
                        size_kb=stat.size / 1024.0,
                        count=stat.count,
                    )
                )
            if self._started_tracing:
                tracemalloc.stop()
                self._started_tracing = False
        self.summary = ResourceSummary(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_kb=peak_rss_kb(),
            alloc_peak_kb=alloc_peak_kb,
            top_allocations=top,
            worker_peak_rss_kb=peak_child_rss_kb(),
        )
        self._wall_start = None
        return self.summary

    def __enter__(self) -> "ResourceAccountant":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
