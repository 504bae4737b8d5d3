"""Parallel decode workers wrapping :class:`repro.core.ChoirDecoder`.

The gateway's dispatch stage hands detected packet windows to a
:class:`DecodeWorkerPool`.  Three executors share one decode and
accounting path:

* ``"serial"`` -- decode inline in the caller (deterministic reference,
  also what the tests lean on),
* ``"thread"`` -- a :class:`concurrent.futures.ThreadPoolExecutor`;
  workers share the ingest thread's GIL, so this scales only as far as
  the decoder's numpy calls release it,
* ``"process"`` -- a :class:`concurrent.futures.ProcessPoolExecutor` for
  per-core scaling.

``"process"`` is the executor of the committed urban scenario
(``scenarios/eu868_urban.yaml``) and the default of
:class:`repro.scenario.spec.GatewaySpec`: its workers decode
escalations without contending for the ingest thread's GIL.  Median
``realtime_x`` of ``python3 bench/run.py --reps 3 --trace 0`` per
executor, in 3 alternating rounds on a 2-core x86_64 VM
(``city_urban_800`` through a copy of the scenario file with only
``executor`` changed, ``gw_eu868_mixed`` through its ``executor``
parameter):

==================  ===================  ===================  ===================
workload            thread               serial               process
==================  ===================  ===================  ===================
``city_urban_800``  0.525, 0.425, 0.373  0.670, 0.634, 0.589  0.878, 0.913, 0.934
``gw_eu868_mixed``  1.177, 1.304, 1.069  1.325, 1.390, 1.216  1.539, 1.467, 1.540
==================  ===================  ===================  ===================

Delivery and ``rx1_on_time_ratio`` were the same in every cell of a
row.  ``"thread"`` stays because the repo benchmark's ``gw_eu868_mixed``
workload and ``make bench-gateway`` run it; it goes when those move.

Both parallel executors dispatch the same way.  On the ``"cascade"``
tier, Tier 0 runs first in the submitting thread
(:func:`screen_packet_window`): a window it decodes clean and CRC-ok is
recorded there and then, so cheap decodes never queue behind full-Choir
escalations.  Every other job passes one admission gate (a bounded
semaphore with a slot per worker plus ``queue_capacity`` slots for
windows awaiting decode), ``Executor.submit``, and one done callback
that records the outcome and frees the slot.  The job is submitted as
:func:`_decode_job`, which a process pool pickles by name.  The drop
policy says what happens when every slot is taken, i.e. decode has
fallen behind ingest -- drop the ``"newest"`` window (default: keep
latency bounded, lose the packet that arrived into an overloaded
system) or ``"block"`` ingest (lossless, at the price of stalling the
stream).  An escalation resumes
in the worker where Tier 0 left it (:class:`Escalation`), so Tier 0
runs once per job and the job's outcome, trace and counters are those
of one decode.

Decoding draws no randomness: an outcome is a function of the job's
samples and params alone, so which worker decodes which packet -- or
whether any parallelism is used at all -- never changes the result.

Observability rides the same outcome path on every executor: each job
decodes under one ambient :mod:`repro.observe` scope -- a job-local
telemetry registry, a provenance span tree when its
:class:`repro.trace.TraceDirective` asks for one, and a job-local kernel
profiler when the pool profiles -- built inside the worker, thread or
process.  The scope ships home as one
:class:`repro.observe.ObservationBundle` on the outcome and the pool
merges it in one call, so counter totals, kernel tables and retained
traces are identical across executors by construction.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import observe
from repro.core.cascade import (
    DECODE_TIERS,
    DEFAULT_DECODE_TIER,
    CascadePipeline,
    ChoirPipeline,
    UserFrame,
    WindowDecode,
    build_pipeline,
)
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.phy.params import LoRaParams
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import process_cpu
from repro.trace.model import PacketTrace, TraceBuilder
from repro.trace.recorder import TraceDirective, TraceRecorder

#: Accepted overload behaviors for the bounded decode queue.
DROP_POLICIES: Tuple[str, ...] = ("newest", "block")

#: Accepted executor kinds.
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")


@dataclass(frozen=True)
class DecodeJob:
    """One detected packet window, ready to decode.

    Each job is tagged with the (channel, SF) shard that detected it:
    ``params`` is that shard's PHY configuration (so one pool can decode
    SF7 and SF8 windows side by side), ``channel`` labels telemetry, and
    ``key`` -- ``(channel, sf, shard_seq)`` from the gateway's scanners --
    is the job's deterministic identity: trace sampling and the recorder's
    canonical order go by it, however jobs from different shards
    interleave.
    """

    job_id: int
    samples: np.ndarray
    n_data_symbols: int
    payload_len: int
    start_sample: int
    detection_score: float
    created_at: float  # telemetry clock() reading at submission
    params: LoRaParams
    key: Tuple[int, ...]
    channel: int = 0

    @property
    def label(self) -> str:
        """The job's shard label, e.g. ``ch0.sf7``."""
        return shard_label(self.channel, self.params.spreading_factor)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one packet window.

    ``key`` is the decoded job's :attr:`DecodeJob.key`.

    ``observed`` is the job's observation bundle -- job-local telemetry,
    the retained provenance span tree and the job-local kernel-profiler
    state (when the pool profiles) -- built inside the worker and merged
    by the pool on arrival, so the process executor loses none of it.

    ``tier`` names the pipeline tier that produced ``users`` (``"full"``
    or ``"tier0"``); ``escalation_reason`` is set when Tier 0 declined
    the window (see :mod:`repro.core.cascade`), so forensics can tell
    "the fast path lost it" from "the full path lost it" structurally.
    """

    job_id: int
    start_sample: int
    users: Tuple[UserFrame, ...]
    payload: Optional[bytes]
    crc_ok: bool
    queue_wait_s: float
    decode_s: float
    detection_score: float
    sync_retries: int = 0
    error: Optional[str] = None
    channel: int = 0
    spreading_factor: Optional[int] = None
    key: Tuple[int, ...] = ()
    tier: str = "full"
    escalation_reason: Optional[str] = None
    observed: observe.ObservationBundle = observe.ObservationBundle()

    @property
    def n_users(self) -> int:
        """How many users the decoder disentangled in this window."""
        return len(self.users)


@dataclass(frozen=True)
class Escalation:
    """A job Tier 0 declined at dispatch, on its way to a worker.

    ``tier0`` is Tier 0's result (its ``escalation_reason`` says why it
    declined), ``builder`` the job's span tree with ``decode.tier0``
    already in it, ``observed`` Tier 0's job-local observations,
    ``tier0_s`` Tier 0's wall time and ``declined_at`` the :func:`clock`
    reading when it declined, where the job's queue wait starts.
    """

    tier0: WindowDecode
    builder: Optional[TraceBuilder]
    observed: observe.ObservationBundle
    tier0_s: float
    declined_at: float


def _job_builder(
    job: DecodeJob, trace_directive: Optional[TraceDirective]
) -> Optional[TraceBuilder]:
    """The root ``decode.job`` span of a traced job, or None."""
    if trace_directive is None:
        return None
    return TraceBuilder(
        "decode.job",
        job_id=job.job_id,
        key=list(job.key),
        channel=job.channel,
        spreading_factor=job.params.spreading_factor,
        start_sample=job.start_sample,
        detection_score=job.detection_score,
    )


def _decode_in_scope(
    job: DecodeJob,
    pipeline: "ChoirPipeline | CascadePipeline",
    builder: Optional[TraceBuilder],
    profile: bool,
    escalation: Optional[Escalation] = None,
    screening: bool = False,
) -> Tuple[WindowDecode, observe.Observation]:
    """Decode ``job`` with ``pipeline`` under the job's observation scope.

    With ``escalation`` the job resumes where Tier 0 left it at dispatch,
    with Tier 0's observations folded into this scope.  The job ends here
    with its ``result`` event unless ``screening`` and Tier 0 declined
    the window.
    """
    spreading_factor = job.params.spreading_factor
    resumed = {} if escalation is None else {"tier0": escalation.tier0}
    job_profiler = KernelProfiler() if profile else None
    cpu_started = process_cpu() if profile else 0.0
    with observe.scope(Telemetry(), builder, job_profiler) as observation:
        if escalation is not None:
            observation.merge(escalation.observed)
        # One decode.window call per job, however many stages it takes.
        with observe.kernel(
            "decode.window", f"sf{spreading_factor}", calls=int(escalation is None)
        ):
            window = pipeline.decode_window(
                job.samples, job.n_data_symbols, job.payload_len, **resumed
            )
        if not (screening and window.escalation_reason is not None):
            observe.counter("decode.users_found", len(window.users))
            observe.add_event(
                "result",
                crc_ok=window.crc_ok,
                n_users=len(window.users),
                sync_retries=window.sync_retries,
            )
    if job_profiler is not None:
        job_profiler.add_cpu(max(process_cpu() - cpu_started, 0.0))
    return window, observation


def _outcome(
    job: DecodeJob,
    window: WindowDecode,
    builder: Optional[TraceBuilder],
    trace_directive: Optional[TraceDirective],
    observation: observe.Observation,
    queue_wait_s: float,
    decode_s: float,
) -> DecodeOutcome:
    """The job's outcome record, with its span tree if the directive keeps it."""
    users = window.users
    verified = [u for u in users if u.crc_ok]
    best = verified[0] if verified else (users[0] if users else None)
    crc_ok = bool(verified)
    trace: Optional[PacketTrace] = None
    if builder is not None and trace_directive is not None:
        root = builder.finish()
        if trace_directive.keep(crc_ok):
            trace = PacketTrace(
                key=job.key,
                job_id=job.job_id,
                channel=job.channel,
                spreading_factor=job.params.spreading_factor,
                start_sample=job.start_sample,
                detection_score=job.detection_score,
                sampled=trace_directive.sampled,
                root=root,
                label=job.label,
            )
    return DecodeOutcome(
        job_id=job.job_id,
        start_sample=job.start_sample,
        users=users,
        payload=best.payload if best is not None else None,
        crc_ok=crc_ok,
        queue_wait_s=max(queue_wait_s, 0.0),
        decode_s=decode_s,
        detection_score=job.detection_score,
        sync_retries=window.sync_retries,
        channel=job.channel,
        spreading_factor=job.params.spreading_factor,
        key=job.key,
        tier=window.tier,
        escalation_reason=window.escalation_reason,
        observed=observation.bundle(trace),
    )


def decode_packet_window(
    job: DecodeJob,
    max_users: Optional[int] = None,
    decode_tier: str = DEFAULT_DECODE_TIER,
    trace_directive: Optional[TraceDirective] = None,
    profile: bool = False,
    escalation: Optional[Escalation] = None,
) -> DecodeOutcome:
    """Decode one packet window as ``job.params``.

    The decode itself is delegated to the tier pipeline named by
    ``decode_tier`` (:func:`repro.core.cascade.build_pipeline`): the
    default ``"cascade"`` tries the Tier-0 fast path first and escalates
    to the full pipeline on collision evidence or CRC failure; ``"full"``
    snaps every window to the preamble grid (the window is cut per
    :data:`repro.core.cascade.WINDOW_LEAD_SYMBOLS`, which bounds that
    search) and retries a small ladder of alternative alignments with CRC
    as the oracle; ``"fast"`` is Tier 0 alone.  This function owns the
    job plumbing around the pipeline: the job's observation scope and the
    outcome record.  With ``escalation`` (a ``"cascade"`` job that
    :func:`screen_packet_window` declined at dispatch), Tier 0 does not
    run again: the job resumes at the escalation, in the same span tree
    and with Tier 0's observations, so its outcome, trace and counters
    are those of a whole decode here.

    Module-level (rather than a pool method) so the process executor can
    run it in workers, through :func:`_decode_job`; everything it touches
    -- including the trace directive and escalation in and the span tree
    out -- is picklable.

    Each job carries its own ``params`` (its shard's PHY configuration).
    The decode draws no randomness, so the outcome depends on the job
    alone, not on the executor or on how shards interleave.

    The decode runs under one :func:`repro.observe.scope` holding a
    job-local :class:`Telemetry`, the trace builder (when the directive
    builds one) and, with ``profile=True``, a job-local
    :class:`KernelProfiler` (so per-kernel wall/FFT/bytes accounting
    works identically on every executor).  All three ship home as the
    outcome's ``observed`` bundle; each stage of the decode runs under a
    ``decode.window`` root kernel, so summed kernel wall times cover the
    job end to end.
    """
    started = clock()
    pipeline = build_pipeline(decode_tier, job.params, max_users=max_users)
    if escalation is None:
        builder = _job_builder(job, trace_directive)
        queued_since, earlier_s = job.created_at, 0.0
    else:
        builder = escalation.builder
        queued_since, earlier_s = escalation.declined_at, escalation.tier0_s
    window, observation = _decode_in_scope(job, pipeline, builder, profile, escalation)
    return _outcome(
        job,
        window,
        builder,
        trace_directive,
        observation,
        queue_wait_s=started - queued_since,
        decode_s=earlier_s + clock() - started,
    )


def _decode_job(job: DecodeJob, options: Dict[str, Any]) -> DecodeOutcome:
    """The pool's worker entry point: :func:`decode_packet_window` by name.

    The parallel executors submit this function, never
    :func:`decode_packet_window` itself, so a process pool pickles a
    module-level name even while that global is replaced by a wrapper
    that cannot be pickled (a timing closure, say).  The global is read
    at call time, in the worker.
    """
    return decode_packet_window(job, **options)


def screen_packet_window(
    job: DecodeJob,
    trace_directive: Optional[TraceDirective] = None,
    profile: bool = False,
) -> "DecodeOutcome | Escalation":
    """Run a ``"cascade"`` job's Tier 0 here: its outcome, or its escalation.

    A window Tier 0 decodes clean and CRC-ok is finished: its outcome is
    exactly what :func:`decode_packet_window` would return.  Any other
    window comes back as the :class:`Escalation` to hand to
    :func:`decode_packet_window` in a worker.
    """
    started = clock()
    builder = _job_builder(job, trace_directive)
    window, observation = _decode_in_scope(
        job, build_pipeline("fast", job.params), builder, profile, screening=True
    )
    now = clock()
    if window.escalation_reason is not None:
        return Escalation(window, builder, observation.bundle(), now - started, now)
    return _outcome(
        job,
        window,
        builder,
        trace_directive,
        observation,
        queue_wait_s=started - job.created_at,
        decode_s=now - started,
    )


class DecodeWorkerPool:
    """Pool of Choir decode workers behind one bounded admission gate.

    Every job decodes with its own ``params`` (see :class:`DecodeJob`),
    so one pool serves any mix of channels and spreading factors.

    Parameters
    ----------
    n_workers:
        Parallel decoders (ignored for ``executor="serial"``).
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    queue_capacity:
        Maximum windows awaiting decode before the drop policy applies;
        jobs already running on a worker do not count against it.  On
        the ``"cascade"`` tier only Tier-0 escalations wait: a window
        Tier 0 decodes is recorded at dispatch and is never dropped.
    drop_policy:
        Overload behavior; see :data:`DROP_POLICIES`.
    max_users:
        Cap on SIC user estimates per window (None = uncapped); bounds
        the worst-case decode time on windows full of interference.
    decode_tier:
        Which pipeline decodes each window -- ``"cascade"`` (default:
        Tier-0 fast path, full Choir on escalation), ``"full"`` (the
        reference path on every window) or ``"fast"`` (Tier 0 only); see
        :mod:`repro.core.cascade`.
    telemetry:
        Optional registry receiving dispatch/decode instruments.
    trace_recorder:
        Optional :class:`repro.trace.TraceRecorder`; when set, each
        job's trace directive is computed from its key before dispatch
        and every outcome (with its retained span tree) is recorded.
    profiler:
        Optional :class:`repro.profile.KernelProfiler`; when set, every
        job decodes under a job-local profiler whose state ships back in
        the outcome's observation bundle and is merged here -- per-kernel
        totals are identical across executors by construction, exactly
        like job telemetry.
    on_outcome:
        Optional live outcome hook, called once per recorded outcome
        (after aggregation, outside the pool lock) -- the gateway's
        report-streaming tap, e.g. forwarding decoded frames to a
        network server while the stream is still running.  It runs in
        the thread that completes the job: the caller of :meth:`submit`
        under ``"serial"``, and for every Tier-0 outcome of the
        ``"cascade"`` tier on every executor; otherwise the decoding
        worker thread under ``"thread"``, and the executor's
        result-handling thread under ``"process"`` (a job already done
        when :meth:`submit` attaches its callback is recorded by the
        caller).  The callable must therefore be thread-safe, and
        outcomes may arrive out of stream order.
    """

    def __init__(
        self,
        n_workers: int = 1,
        executor: str = "thread",
        queue_capacity: int = 8,
        drop_policy: str = "newest",
        max_users: Optional[int] = None,
        decode_tier: str = DEFAULT_DECODE_TIER,
        telemetry: Optional[Telemetry] = None,
        trace_recorder: Optional[TraceRecorder] = None,
        profiler: Optional[KernelProfiler] = None,
        on_outcome: Optional[Callable[[DecodeOutcome], None]] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if decode_tier not in DECODE_TIERS:
            raise ValueError(
                f"decode_tier must be one of {DECODE_TIERS}, got {decode_tier!r}"
            )
        if drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}, got {drop_policy!r}"
            )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.n_workers = n_workers
        self.executor = executor
        self.queue_capacity = queue_capacity
        self.drop_policy = drop_policy
        self.max_users = max_users
        self.decode_tier = decode_tier
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.trace_recorder = trace_recorder
        self.profiler = profiler
        self.on_outcome = on_outcome
        # Where job bundles merge; traces go to the recorder with their row.
        self._sinks = observe.Observation(self.telemetry, profiler=profiler)
        self._outcomes: List[DecodeOutcome] = []
        self._lock = threading.Lock()
        self._closed = False
        # One admission gate for both parallel executors: a slot per
        # running job plus one per window awaiting decode.
        self._slots = threading.BoundedSemaphore(queue_capacity + n_workers)
        self._admitted = 0  # jobs holding a slot; guarded by _lock
        self._executor: Optional[Executor] = None
        if executor == "thread":
            self._executor = ThreadPoolExecutor(n_workers, "decode")
        elif executor == "process":
            self._executor = ProcessPoolExecutor(n_workers)

    # ------------------------------------------------------------------
    # Shared decode + accounting
    # ------------------------------------------------------------------
    def _options(self, job: DecodeJob) -> Dict[str, Any]:
        """Keyword arguments of :func:`decode_packet_window` for ``job``."""
        recorder = self.trace_recorder
        return {
            "max_users": self.max_users,
            "decode_tier": self.decode_tier,
            "trace_directive": None if recorder is None else recorder.directive(job.key),
            "profile": self.profiler is not None,
        }

    @staticmethod
    def _error_outcome(job: DecodeJob, exc: BaseException) -> DecodeOutcome:
        return DecodeOutcome(
            job_id=job.job_id,
            start_sample=job.start_sample,
            users=(),
            payload=None,
            crc_ok=False,
            queue_wait_s=0.0,
            decode_s=0.0,
            detection_score=job.detection_score,
            error=f"{type(exc).__name__}: {exc}",
            channel=job.channel,
            spreading_factor=job.params.spreading_factor,
            key=job.key,
        )

    def _record(self, outcome: DecodeOutcome) -> None:
        with self._lock:
            self._outcomes.append(outcome)
        self._sinks.merge(outcome.observed)
        self.telemetry.histogram("decode.queue_wait_s").record(outcome.queue_wait_s)
        self.telemetry.histogram("decode.decode_s").record(outcome.decode_s)
        if outcome.error is None:
            # Per-tier latency: "full" here covers both the classic path
            # and cascade escalations (the whole job paid the full cost).
            self.telemetry.histogram(f"decode.{outcome.tier}.decode_s").record(
                outcome.decode_s
            )
        if outcome.sync_retries:
            self.telemetry.counter("decode.sync_retries").inc(outcome.sync_retries)
        if outcome.crc_ok:
            self.telemetry.counter("decode.crc_ok").inc()
        elif outcome.error is None:
            self.telemetry.counter("decode.crc_failed").inc()
        else:
            self.telemetry.counter("decode.errors").inc()
        if outcome.spreading_factor is not None:
            # Per-(channel, SF) counters let the report break recovery
            # out by shard.
            label = shard_label(outcome.channel, outcome.spreading_factor)
            if outcome.crc_ok:
                self.telemetry.counter(f"{label}.decode.crc_ok").inc()
            elif outcome.error is None:
                self.telemetry.counter(f"{label}.decode.crc_failed").inc()
            else:
                self.telemetry.counter(f"{label}.decode.errors").inc()
            if outcome.error is None and outcome.tier == "tier0" and outcome.crc_ok:
                self.telemetry.counter(f"{label}.decode.tier0.ok").inc()
            if outcome.escalation_reason is not None and outcome.tier == "full":
                self.telemetry.counter(f"{label}.decode.escalated").inc()
        if self.trace_recorder is not None:
            self.trace_recorder.record_outcome(
                job_id=outcome.job_id,
                key=outcome.key,
                channel=outcome.channel,
                spreading_factor=outcome.spreading_factor,
                start_sample=outcome.start_sample,
                detection_score=outcome.detection_score,
                crc_ok=outcome.crc_ok,
                n_users=outcome.n_users,
                sync_retries=outcome.sync_retries,
                error=outcome.error,
                tier=outcome.tier,
                escalation_reason=outcome.escalation_reason,
                payload=outcome.payload,
                users=[
                    (u.offset_bins, u.payload.hex(), u.crc_ok)
                    for u in outcome.users
                ],
                trace=outcome.observed.trace,
            )
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _count_drop(self, label: str) -> None:
        """Count one dropped job, in total and under its shard label."""
        self.telemetry.counter("dispatch.dropped").inc()
        self.telemetry.counter(f"{label}.dispatch.dropped").inc()

    def _done(self, job: DecodeJob, future: "Future[DecodeOutcome]") -> None:
        """Record a finished job, then give its admission slot back.

        A job that raised, that the executor refused, or whose worker
        process died before it could answer becomes one error outcome on
        its own shard.
        """
        try:
            exc = future.exception()
            self._record(
                future.result() if exc is None else self._error_outcome(job, exc)
            )
        finally:
            self._admit(-1)
            self._slots.release()

    def _admit(self, delta: int) -> None:
        """Count jobs into (+1) or out of (-1) the gate; publish the waiting."""
        with self._lock:
            self._admitted += delta
            self.telemetry.gauge("dispatch.queue_depth").set(
                max(self._admitted - self.n_workers, 0)
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, job: DecodeJob) -> bool:
        """Admit ``job``; returns False when the drop policy rejected it.

        Rejected jobs are counted under ``dispatch.dropped``.  On the
        parallel executors ``dispatch.queue_depth`` tracks the admitted
        jobs waiting for a worker.  On those executors a ``"cascade"``
        job runs Tier 0 here first (:func:`screen_packet_window`): a
        window it decodes clean and CRC-ok is recorded at once, and only
        an escalation goes through the admission gate to a worker.  A job
        the executor refuses -- a process pool raises ``BrokenProcessPool``
        once a worker has died -- is recorded as one error outcome on its
        shard (``decode.errors``) and gives its slot back.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.telemetry.counter("dispatch.submitted").inc()
        options = self._options(job)
        if self._executor is None:
            try:
                outcome = decode_packet_window(job, **options)
            except Exception as exc:  # defensive: one error outcome, no crash
                outcome = self._error_outcome(job, exc)
            self._record(outcome)
            return True
        if self.decode_tier == "cascade":
            try:
                screened = screen_packet_window(
                    job, options["trace_directive"], options["profile"]
                )
            except Exception as exc:  # defensive: one error outcome, no crash
                screened = self._error_outcome(job, exc)
            if isinstance(screened, DecodeOutcome):
                self._record(screened)
                return True
            options["escalation"] = screened
        if not self._slots.acquire(blocking=self.drop_policy == "block"):
            if "escalation" in options:
                # Tier 0 ran; its work is counted though the job is lost.
                self._sinks.merge(options["escalation"].observed)
            self._count_drop(job.label)
            return False
        self._admit(1)
        try:
            future = self._executor.submit(_decode_job, job, options)
        except Exception as exc:  # e.g. BrokenProcessPool once a worker died
            # Settled here, so the callback below runs at once.
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(lambda f: self._done(job, f))
        return True

    @property
    def dropped(self) -> int:
        """Jobs lost to the drop policy so far."""
        return self.telemetry.counter("dispatch.dropped").value

    def close(self) -> List[DecodeOutcome]:
        """Drain all pending work, stop the workers, return every outcome.

        Outcomes are sorted by job id, so callers see stream order
        regardless of decode interleaving.
        """
        if not self._closed:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True)
        with self._lock:
            return sorted(self._outcomes, key=lambda o: o.job_id)
