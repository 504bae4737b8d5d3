"""The ambient observation context: how deep pipeline stages reach their sinks.

The receive chain is many layers deep (worker -> cascade -> align ->
decoder -> phased SIC -> residual engine).  Threading telemetry, trace
and profiler handles through every signature would couple the core DSP
modules to the gateway, so instead a caller installs one
:class:`Observation` -- up to three optional sinks -- for the duration of
a scope, and any stage reports to it through the helpers below without
knowing which sinks (if any) are listening:

* a job-local :class:`repro.gateway.telemetry.Telemetry` registry
  (:func:`counter`, :func:`timer`),
* a :class:`repro.trace.model.TraceBuilder` span tree (:func:`span`,
  :func:`add_event`, :func:`annotate`),
* a :class:`repro.profile.profiler.KernelProfiler` (:func:`kernel`,
  :func:`add`),

plus :func:`stage`, a span and a telemetry timer opened as one scope.
With nothing installed every hook is a single ContextVar read, which is
what keeps the observation-off hot path within its overhead budget.

``ContextVar`` (rather than a module global) makes the propagation
correct under every executor: each worker thread sees only its own
job's observation, and the process executor installs it inside the
worker process.  :meth:`Observation.bundle` freezes a scope's sinks into
one picklable :class:`ObservationBundle` that travels home with the
job's outcome, and :meth:`Observation.merge` folds a bundle into the
receiving side's sinks in one call -- so totals are identical across
executors by construction.  This is the only module that constructs a
``ContextVar`` (repro-lint R014).

Core imports this module and the gateway imports core, so the sink
types are named for type checking only: the module imports nothing from
the repository at run time.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gateway.telemetry import Telemetry
    from repro.profile.profiler import KernelProfiler
    from repro.trace.model import PacketTrace, TraceBuilder

_NULL: ContextManager[Any] = nullcontext()


@dataclass(frozen=True)
class ObservationBundle:
    """One scope's observations, frozen for the trip home.

    ``telemetry`` is the registry's portable state, ``trace`` the
    retained provenance span tree (``None`` when tracing is off or the
    job was not kept) and ``profile`` the kernel profiler's state.
    """

    telemetry: Optional[Dict[str, Dict[str, Any]]] = None
    trace: Optional[PacketTrace] = None
    profile: Optional[Dict[str, Any]] = None


class Observation:
    """The sinks one scope reports to; any of them may be ``None``."""

    __slots__ = ("telemetry", "builder", "profiler")

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        builder: Optional[TraceBuilder] = None,
        profiler: Optional[KernelProfiler] = None,
    ) -> None:
        self.telemetry = telemetry
        self.builder = builder
        self.profiler = profiler

    def bundle(self, trace: Optional[PacketTrace] = None) -> ObservationBundle:
        """Freeze the telemetry and profile state, with ``trace`` if kept."""
        return ObservationBundle(
            telemetry=None if self.telemetry is None else self.telemetry.state(),
            trace=trace,
            profile=None if self.profiler is None else self.profiler.state(),
        )

    def merge(self, bundle: ObservationBundle) -> None:
        """Fold another scope's bundle into these sinks.

        The trace is not merged: a retained span tree belongs to its
        outcome row, which the trace recorder stores as a whole.
        """
        if bundle.telemetry and self.telemetry is not None:
            self.telemetry.merge(bundle.telemetry)
        if bundle.profile and self.profiler is not None:
            self.profiler.merge_state(bundle.profile)


_ACTIVE: ContextVar[Optional[Observation]] = ContextVar(
    "repro_observation", default=None
)


def current() -> Optional[Observation]:
    """The observation installed for the running scope, or None."""
    return _ACTIVE.get()


@contextmanager
def scope(
    telemetry: Optional[Telemetry] = None,
    builder: Optional[TraceBuilder] = None,
    profiler: Optional[KernelProfiler] = None,
) -> Iterator[Observation]:
    """Install the given sinks as the ambient observation for the block.

    The scope replaces any outer observation entirely.  A scope with no
    sinks installs nothing observable (the ContextVar holds ``None``), so
    callers use one ``with`` statement for the observed and unobserved
    paths and the unobserved one stays a single read per hook.
    """
    observation = Observation(telemetry, builder, profiler)
    empty = telemetry is None and builder is None and profiler is None
    token = _ACTIVE.set(None if empty else observation)
    try:
        yield observation
    finally:
        _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# Trace hooks
# ----------------------------------------------------------------------
def span(name: str, **attrs: Any) -> ContextManager[Any]:
    """Open a child span on the active builder; no-op when tracing is off."""
    observation = _ACTIVE.get()
    if observation is None or observation.builder is None:
        return _NULL
    return observation.builder.span(name, **attrs)


def add_event(name: str, **attrs: Any) -> None:
    """Record an event on the active span; no-op when tracing is off."""
    observation = _ACTIVE.get()
    if observation is not None and observation.builder is not None:
        observation.builder.event(name, **attrs)


def annotate(**attrs: Any) -> None:
    """Merge attributes into the active span; no-op when tracing is off."""
    observation = _ACTIVE.get()
    if observation is not None and observation.builder is not None:
        observation.builder.annotate(**attrs)


# ----------------------------------------------------------------------
# Profile hooks
# ----------------------------------------------------------------------
def kernel(
    name: str,
    shape: str = "",
    fft_count: int = 0,
    fft_points: int = 0,
    bytes_touched: int = 0,
    calls: int = 1,
) -> ContextManager[Any]:
    """Account the wrapped block to kernel ``name``; no-op when off.

    Nested :func:`kernel` blocks record *self time* (elapsed minus time
    inside child kernels), so summed kernel wall times stay additive.
    ``calls=0`` continues an invocation counted earlier.
    """
    observation = _ACTIVE.get()
    if observation is None or observation.profiler is None:
        return _NULL
    return observation.profiler.kernel(
        name,
        shape,
        fft_count=fft_count,
        fft_points=fft_points,
        bytes_touched=bytes_touched,
        calls=calls,
    )


def add(fft_count: int = 0, fft_points: int = 0, bytes_touched: int = 0) -> None:
    """Attribute extra work to the innermost kernel; no-op when off."""
    observation = _ACTIVE.get()
    if observation is not None and observation.profiler is not None:
        observation.profiler.add(
            fft_count=fft_count,
            fft_points=fft_points,
            bytes_touched=bytes_touched,
        )


# ----------------------------------------------------------------------
# Telemetry hooks
# ----------------------------------------------------------------------
def counter(name: str, n: int = 1) -> None:
    """Increment the counter ``name`` by ``n``; no-op without telemetry."""
    observation = _ACTIVE.get()
    if observation is not None and observation.telemetry is not None:
        observation.telemetry.counter(name).inc(n)


def timer(name: str) -> ContextManager[Any]:
    """Time the block into the histogram ``name``; no-op without telemetry."""
    observation = _ACTIVE.get()
    if observation is None or observation.telemetry is None:
        return _NULL
    return observation.telemetry.timer(name)


def stage(name: str, timer: str, **attrs: Any) -> ContextManager[Any]:
    """Span ``name`` and the histogram timer ``timer`` around one block."""
    if _ACTIVE.get() is None:
        return _NULL
    return _stage(name, timer, attrs)


@contextmanager
def _stage(name: str, timer_name: str, attrs: Dict[str, Any]) -> Iterator[None]:
    with span(name, **attrs), timer(timer_name):
        yield
