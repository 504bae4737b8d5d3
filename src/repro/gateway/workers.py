"""Parallel decode workers wrapping :class:`repro.core.ChoirDecoder`.

The gateway's dispatch stage hands detected packet windows to a
:class:`DecodeWorkerPool`.  Three executors share one code path:

* ``"serial"`` -- decode inline in the caller (deterministic baseline,
  also what the tests lean on),
* ``"thread"`` -- a bounded queue drained by worker threads (numpy's FFTs
  release the GIL for the hot part),
* ``"process"`` -- a :class:`concurrent.futures.ProcessPoolExecutor` for
  per-core scaling when thread-level parallelism is not enough.

Backpressure is explicit: the queue is bounded and the drop policy says
what happens when decode falls behind ingest -- drop the ``"newest"``
window (default: keep latency bounded, lose the packet that arrived into
an overloaded system) or ``"block"`` ingest (lossless, at the price of
stalling the stream).

Every decode job carries its own RNG derived from the pool seed and the
job's shard key (:func:`repro.utils.derive_rng`), so which worker decodes
which packet -- or whether any parallelism is used at all -- never
changes the result.

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

import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import observe
from repro.core.cascade import (
    DECODE_TIERS,
    DEFAULT_DECODE_TIER,
    UserFrame,
    build_pipeline,
)
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.phy.params import LoRaParams
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import process_cpu
from repro.trace.model import PacketTrace, TraceBuilder
from repro.trace.recorder import TraceDirective, TraceRecorder
from repro.utils import RngLike, as_seed_sequence, derive_rng

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
    ``rng_key`` -- ``(channel, sf, shard_seq)`` from the gateway's
    scanners -- seeds the decoder RNG, so results stay deterministic no
    matter how jobs from different shards interleave.
    """

    job_id: int
    samples: np.ndarray
    n_data_symbols: int
    payload_len: int
    start_sample: int
    detection_score: float
    created_at: float  # telemetry clock() reading at submission
    params: LoRaParams
    rng_key: Tuple[int, ...]
    channel: int = 0

    @property
    def key(self) -> Tuple[int, ...]:
        """The job's deterministic identity (its RNG key)."""
        return self.rng_key

    @property
    def label(self) -> str:
        """The job's shard label, e.g. ``ch0.sf7``."""
        return shard_label(self.channel, self.params.spreading_factor)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one packet window.

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
    rng_key: Tuple[int, ...] = ()
    tier: str = "full"
    escalation_reason: Optional[str] = None
    observed: observe.ObservationBundle = observe.ObservationBundle()

    @property
    def n_users(self) -> int:
        """How many users the decoder disentangled in this window."""
        return len(self.users)

    @property
    def key(self) -> Tuple[int, ...]:
        """The outcome's deterministic identity (matches the job's)."""
        return self.rng_key


def decode_packet_window(
    job: DecodeJob,
    base_seed: np.random.SeedSequence,
    max_users: Optional[int] = None,
    decode_tier: str = DEFAULT_DECODE_TIER,
    trace_directive: Optional[TraceDirective] = None,
    profile: bool = False,
) -> DecodeOutcome:
    """Decode one packet window as ``job.params`` with a job-keyed RNG.

    The decode itself is delegated to the tier pipeline named by
    ``decode_tier`` (:func:`repro.core.cascade.build_pipeline`): the
    default ``"cascade"`` tries the Tier-0 fast path first and escalates
    to the full pipeline on collision evidence or CRC failure; ``"full"``
    snaps every window to the preamble grid (the window is cut per
    :data:`repro.core.cascade.WINDOW_LEAD_SYMBOLS`, which bounds that
    search) and retries a small ladder of alternative alignments with CRC
    as the oracle; ``"fast"`` is Tier 0 alone.  This function owns the
    job plumbing around the pipeline: RNG derivation, the job's
    observation scope, and the outcome record.

    Module-level (rather than a pool method) so the process executor can
    ship it to workers; everything it touches -- including the trace
    directive in and the span tree out -- is picklable.

    Each job carries its own ``params`` (its shard's PHY configuration);
    the decoder RNG derives from the job's ``rng_key``, whose per-shard
    sequence numbers keep results independent of how shards interleave
    their submissions.

    The decode runs under one :func:`repro.observe.scope` holding a
    job-local :class:`Telemetry`, the trace builder (when the directive
    builds one) and, with ``profile=True``, a job-local
    :class:`KernelProfiler` (so per-kernel wall/FFT/bytes accounting
    works identically on every executor).  All three ship home as the
    outcome's ``observed`` bundle; the whole decode runs under a
    ``decode.window`` root kernel, so summed kernel wall times cover the
    job end to end.
    """
    started = clock()
    rng_key = job.rng_key
    params = job.params
    spreading_factor = params.spreading_factor
    builder: Optional[TraceBuilder] = None
    if trace_directive is not None:
        builder = TraceBuilder(
            "decode.job",
            job_id=job.job_id,
            key=list(rng_key),
            channel=job.channel,
            spreading_factor=spreading_factor,
            start_sample=job.start_sample,
            detection_score=job.detection_score,
        )
    pipeline = build_pipeline(
        decode_tier,
        params,
        rng=derive_rng(base_seed, *rng_key),
        max_users=max_users,
    )
    job_profiler = KernelProfiler() if profile else None
    cpu_started = process_cpu() if profile else 0.0
    with observe.scope(Telemetry(), builder, job_profiler) as observation:
        with observe.kernel("decode.window", f"sf{spreading_factor}"):
            window = pipeline.decode_window(
                job.samples, job.n_data_symbols, job.payload_len
            )
        users = window.users
        verified = [u for u in users if u.crc_ok]
        retries = window.sync_retries
        observe.counter("decode.users_found", len(users))
        observe.add_event(
            "result",
            crc_ok=bool(verified),
            n_users=len(users),
            sync_retries=retries,
        )
    if job_profiler is not None:
        job_profiler.add_cpu(max(process_cpu() - cpu_started, 0.0))
    best = verified[0] if verified else (users[0] if users else None)
    crc_ok = bool(verified)
    trace: Optional[PacketTrace] = None
    if builder is not None and trace_directive is not None:
        root = builder.finish()
        if trace_directive.keep(crc_ok):
            trace = PacketTrace(
                key=rng_key,
                job_id=job.job_id,
                channel=job.channel,
                spreading_factor=spreading_factor,
                start_sample=job.start_sample,
                detection_score=job.detection_score,
                sampled=trace_directive.sampled,
                root=root,
                label=shard_label(job.channel, spreading_factor),
            )
    return DecodeOutcome(
        job_id=job.job_id,
        start_sample=job.start_sample,
        users=users,
        payload=best.payload if best is not None else None,
        crc_ok=crc_ok,
        queue_wait_s=max(started - job.created_at, 0.0),
        decode_s=clock() - started,
        detection_score=job.detection_score,
        sync_retries=retries,
        channel=job.channel,
        spreading_factor=spreading_factor,
        rng_key=rng_key,
        tier=window.tier,
        escalation_reason=window.escalation_reason,
        observed=observation.bundle(trace),
    )


class DecodeWorkerPool:
    """Bounded-queue pool of Choir decode workers.

    Every job decodes with its own ``params`` (see :class:`DecodeJob`),
    so one pool serves any mix of channels and spreading factors.

    Parameters
    ----------
    n_workers:
        Parallel decoders (ignored for ``executor="serial"``).
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    queue_capacity:
        Maximum windows awaiting decode before the drop policy applies.
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
    rng:
        Pool seed; each job's decoder RNG is derived from it by the
        job's ``rng_key``.
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
        network server while the stream is still running.  Thread and
        process executors call it from worker/callback threads, so the
        callable must be thread-safe; outcomes may arrive out of stream
        order.
    """

    def __init__(
        self,
        n_workers: int = 1,
        executor: str = "thread",
        queue_capacity: int = 8,
        drop_policy: str = "newest",
        max_users: Optional[int] = None,
        decode_tier: str = DEFAULT_DECODE_TIER,
        rng: RngLike = None,
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
        self._base_seed = as_seed_sequence(rng)
        self._outcomes: List[DecodeOutcome] = []
        self._lock = threading.Lock()
        self._closed = False
        self._queue: "queue.Queue[Optional[DecodeJob]]" = queue.Queue(
            maxsize=queue_capacity
        )
        self._threads: List[threading.Thread] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[int, "Future[DecodeOutcome]"] = {}
        # In-flight process jobs, kept parent-side so a worker crash can
        # still be recorded as an error outcome.
        self._jobs: Dict[int, DecodeJob] = {}
        if executor == "thread":
            self._threads = [
                threading.Thread(
                    target=self._thread_worker, name=f"decode-{i}", daemon=True
                )
                for i in range(n_workers)
            ]
            for thread in self._threads:
                thread.start()
        elif executor == "process":
            self._pool = ProcessPoolExecutor(max_workers=n_workers)

    # ------------------------------------------------------------------
    # Shared decode + accounting
    # ------------------------------------------------------------------
    def _directive(self, job: DecodeJob) -> Optional[TraceDirective]:
        """The job's tracing instruction, or None when tracing is off."""
        if self.trace_recorder is None:
            return None
        return self.trace_recorder.directive(job.key)

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
            rng_key=job.rng_key,
        )

    def _decode(self, job: DecodeJob) -> DecodeOutcome:
        try:
            return decode_packet_window(
                job,
                self._base_seed,
                max_users=self.max_users,
                decode_tier=self.decode_tier,
                trace_directive=self._directive(job),
                profile=self.profiler is not None,
            )
        except Exception as exc:  # defensive: a worker must never die
            self.telemetry.counter("decode.errors").inc()
            return self._error_outcome(job, exc)

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

    # ------------------------------------------------------------------
    # Thread executor
    # ------------------------------------------------------------------
    def _queued_jobs(self) -> int:
        """Jobs waiting in the thread queue; shutdown sentinels excluded."""
        with self._queue.mutex:
            return sum(1 for job in self._queue.queue if job is not None)

    def _thread_worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            self.telemetry.gauge("dispatch.queue_depth").set(self._queued_jobs())
            self._record(self._decode(job))
            self._queue.task_done()

    def _submit_thread(self, job: DecodeJob) -> bool:
        if self.drop_policy == "block":
            self._queue.put(job)
            return True
        try:
            self._queue.put_nowait(job)
            return True
        except queue.Full:
            self._count_drop(job.label)
            return False

    # ------------------------------------------------------------------
    # Process executor
    # ------------------------------------------------------------------
    def _in_flight(self) -> int:
        with self._lock:
            return sum(1 for f in self._futures.values() if not f.done())

    def _submit_process(self, job: DecodeJob) -> bool:
        assert self._pool is not None
        while self._in_flight() >= self.queue_capacity:
            if self.drop_policy == "newest":
                self._count_drop(job.label)
                return False
            time.sleep(0.001)  # block: poll until a slot frees
        future = self._pool.submit(
            decode_packet_window,
            job,
            self._base_seed,
            max_users=self.max_users,
            decode_tier=self.decode_tier,
            trace_directive=self._directive(job),
            profile=self.profiler is not None,
        )
        with self._lock:
            self._futures[job.job_id] = future
            self._jobs[job.job_id] = job
        future.add_done_callback(lambda f, jid=job.job_id: self._process_done(jid, f))
        return True

    def _process_done(self, job_id: int, future: "Future[DecodeOutcome]") -> None:
        with self._lock:
            job = self._jobs.pop(job_id)
            # Drop the completed future so the table tracks only live
            # work; otherwise it grows for the pool's lifetime and every
            # _in_flight() scan pays for all jobs ever submitted.
            self._futures.pop(job_id, None)
        exc = future.exception()
        if exc is not None:
            # A worker died outright (the in-worker try/except never got
            # to run); synthesize the error outcome parent-side so no
            # job goes unaccounted and telemetry matches serial runs.
            self.telemetry.counter("decode.errors").inc()
            self._record(self._error_outcome(job, exc))
            return
        self._record(future.result())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, job: DecodeJob) -> bool:
        """Enqueue ``job``; returns False when the drop policy rejected it.

        Rejected jobs are counted under ``dispatch.dropped``.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.telemetry.counter("dispatch.submitted").inc()
        if self.executor == "serial":
            self._record(self._decode(job))
            return True
        if self.executor == "thread":
            accepted = self._submit_thread(job)
            self.telemetry.gauge("dispatch.queue_depth").set(self._queued_jobs())
            return accepted
        return self._submit_process(job)

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
            if self.executor == "thread":
                for _ in self._threads:
                    self._queue.put(None)
                for thread in self._threads:
                    thread.join()
            elif self.executor == "process":
                assert self._pool is not None
                with self._lock:
                    futures = list(self._futures.values())
                for future in futures:
                    try:
                        future.result()
                    except Exception:
                        pass  # already counted in _process_done
                self._pool.shutdown()
        with self._lock:
            return sorted(self._outcomes, key=lambda o: o.job_id)
