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
an overloaded system), drop the ``"oldest"`` (favor fresh traffic), or
``"block"`` ingest (lossless, at the price of stalling the stream).

Every decode job carries its own RNG derived from the pool seed and the
job's shard key (:func:`repro.utils.derive_rng`), so which worker decodes
which packet -- or whether any parallelism is used at all -- never
changes the result.

Observability rides the same outcome path on every executor: per-job
instruments are recorded into a job-local registry and shipped back as a
``telemetry_delta`` the pool merges, and a job's provenance span tree
(when its :class:`repro.trace.TraceDirective` asks for one) is built
inside the worker -- thread or process -- and travels home on the
outcome, so counter totals and retained traces are identical across
executors by construction.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cascade import DECODE_TIERS, build_pipeline
from repro.gateway.telemetry import Telemetry, clock, shard_label
from repro.phy.params import LoRaParams
from repro.profile import context as profile_context
from repro.profile.profiler import KernelProfiler
from repro.profile.resources import process_cpu
from repro.trace import context as trace_context
from repro.trace.model import PacketTrace, TraceBuilder
from repro.trace.recorder import TraceDirective, TraceRecorder
from repro.utils import RngLike, as_seed_sequence, derive_rng

#: Accepted overload behaviors for the bounded decode queue.
DROP_POLICIES: Tuple[str, ...] = ("newest", "oldest", "block")

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


@dataclass(frozen=True)
class UserResult:
    """One decoded user's payload attempt within a window."""

    offset_bins: float
    payload: bytes
    crc_ok: bool


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one packet window.

    ``telemetry_delta`` is the job-local registry state recorded inside
    the worker (merged into the pool registry on arrival), ``trace``
    is the retained provenance span tree, and ``profile_delta`` is the
    job-local kernel-profiler state (when the pool profiles) -- all
    travel with the outcome so the process executor loses none of them.

    ``tier`` names the pipeline tier that produced ``users`` (``"full"``
    or ``"tier0"``); ``escalation_reason`` is set when Tier 0 declined
    the window (see :mod:`repro.core.cascade`), so forensics can tell
    "the fast path lost it" from "the full path lost it" structurally.
    """

    job_id: int
    start_sample: int
    users: Tuple[UserResult, ...]
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
    telemetry_delta: Optional[Dict[str, Dict[str, Any]]] = None
    trace: Optional[PacketTrace] = None
    profile_delta: Optional[Dict[str, Any]] = None

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
    params: LoRaParams,
    base_seed: np.random.SeedSequence,
    synchronize: bool = True,
    coding_rate: int = 4,
    sync_search_symbols: int = 0,
    max_users: Optional[int] = None,
    decode_tier: str = "full",
    trace_directive: Optional[TraceDirective] = None,
    profile: bool = False,
) -> DecodeOutcome:
    """Decode one packet window as ``params`` with a job-keyed RNG.

    The decode itself is delegated to the tier pipeline named by
    ``decode_tier`` (:func:`repro.core.cascade.build_pipeline`): the
    default ``"full"`` pipeline snaps the window to the preamble grid
    (``sync_search_symbols`` bounds that search to the first so-many
    symbols -- the streaming gateway cuts windows with two symbols of
    lead, so the true boundary always lies within the first three) and
    retries a small ladder of alternative alignments with CRC as the
    oracle; ``"cascade"`` tries the Tier-0 fast path first and escalates
    to the full pipeline on collision evidence or CRC failure; ``"fast"``
    is Tier 0 alone.  This function owns the job plumbing around the
    pipeline: RNG derivation, the trace builder, job-local telemetry,
    and the outcome record.

    Module-level (rather than a pool method) so the process executor can
    ship it to workers; everything it touches -- including the trace
    directive in and the span tree out -- is picklable.

    The pool passes each job's own ``params`` (its shard's PHY
    configuration); the decoder RNG derives from the job's ``rng_key``,
    whose per-shard sequence numbers keep results independent of how
    shards interleave their submissions.

    With ``profile=True`` a job-local :class:`KernelProfiler` is
    installed for the decode (so per-kernel wall/FFT/bytes accounting
    works identically on every executor) and its state ships home as
    ``profile_delta``; the whole decode runs under a ``decode.window``
    root kernel, so summed kernel wall times cover the job end to end.
    """
    started = clock()
    rng_key = job.rng_key
    spreading_factor = params.spreading_factor
    builder: Optional[TraceBuilder] = None
    if trace_directive is not None and trace_directive.build:
        builder = TraceBuilder(
            "decode.job",
            job_id=job.job_id,
            key=list(rng_key),
            channel=job.channel,
            spreading_factor=spreading_factor,
            start_sample=job.start_sample,
            detection_score=job.detection_score,
        )
    local = Telemetry()
    pipeline = build_pipeline(
        decode_tier,
        params,
        rng=derive_rng(base_seed, *rng_key),
        synchronize=synchronize,
        coding_rate=coding_rate,
        sync_search_symbols=sync_search_symbols,
        max_users=max_users,
    )
    job_profiler = KernelProfiler() if profile else None
    cpu_started = process_cpu() if profile else 0.0
    with trace_context.use_builder(builder), profile_context.use_profiler(
        job_profiler
    ):
        with profile_context.kernel(
            "decode.window", f"sf{params.spreading_factor}"
        ):
            window = pipeline.decode_window(
                job.samples, job.n_data_symbols, job.payload_len, instruments=local
            )
        results = [
            UserResult(
                offset_bins=u.offset_bins, payload=u.payload, crc_ok=u.crc_ok
            )
            for u in window.users
        ]
        verified = [r for r in results if r.crc_ok]
        retries = window.sync_retries
        local.counter("decode.users_found").inc(len(results))
        trace_context.add_event(
            "result",
            crc_ok=bool(verified),
            n_users=len(results),
            sync_retries=retries,
        )
    if job_profiler is not None:
        job_profiler.add_cpu(max(process_cpu() - cpu_started, 0.0))
    best = verified[0] if verified else (results[0] if results else None)
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
        users=tuple(results),
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
        telemetry_delta=local.state(),
        trace=trace,
        profile_delta=(
            job_profiler.state() if job_profiler is not None else None
        ),
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
    synchronize:
        Snap each window to the preamble grid first (needed when windows
        are cut at detection granularity, as the gateway does; disable
        for pre-aligned captures).
    sync_search_symbols:
        Bound the grid search to the first so-many symbols of each
        window (0 = unbounded); set by callers that control the cut.
    max_users:
        Cap on SIC user estimates per window (None = uncapped); bounds
        the worst-case decode time on windows full of interference.
    decode_tier:
        Which pipeline decodes each window -- ``"full"`` (default, the
        classic path), ``"cascade"`` (Tier-0 fast path, full Choir on
        escalation) or ``"fast"`` (Tier 0 only); see
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
        job decodes under a job-local profiler whose state ships back on
        the outcome and is merged here -- per-kernel totals are
        identical across executors by construction, exactly like
        telemetry deltas.
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
        synchronize: bool = True,
        coding_rate: int = 4,
        sync_search_symbols: int = 0,
        max_users: Optional[int] = None,
        decode_tier: str = "full",
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
        self.synchronize = synchronize
        self.coding_rate = coding_rate
        self.sync_search_symbols = sync_search_symbols
        self.max_users = max_users
        self.decode_tier = decode_tier
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.trace_recorder = trace_recorder
        self.profiler = profiler
        self.on_outcome = on_outcome
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
        # Scalar facts about in-flight process jobs, kept parent-side so
        # a worker crash can still be recorded as an error outcome.
        self._job_meta: Dict[int, Tuple[int, float, int, int, Tuple[int, ...]]] = {}
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

    def _error_outcome(
        self,
        job_id: int,
        start_sample: int,
        detection_score: float,
        channel: int,
        spreading_factor: int,
        rng_key: Tuple[int, ...],
        exc: BaseException,
    ) -> DecodeOutcome:
        return DecodeOutcome(
            job_id=job_id,
            start_sample=start_sample,
            users=(),
            payload=None,
            crc_ok=False,
            queue_wait_s=0.0,
            decode_s=0.0,
            detection_score=detection_score,
            error=f"{type(exc).__name__}: {exc}",
            channel=channel,
            spreading_factor=spreading_factor,
            rng_key=rng_key,
        )

    def _decode(self, job: DecodeJob) -> DecodeOutcome:
        try:
            return decode_packet_window(
                job,
                job.params,
                self._base_seed,
                synchronize=self.synchronize,
                coding_rate=self.coding_rate,
                sync_search_symbols=self.sync_search_symbols,
                max_users=self.max_users,
                decode_tier=self.decode_tier,
                trace_directive=self._directive(job),
                profile=self.profiler is not None,
            )
        except Exception as exc:  # defensive: a worker must never die
            self.telemetry.counter("decode.errors").inc()
            return self._error_outcome(
                job.job_id,
                job.start_sample,
                job.detection_score,
                job.channel,
                job.params.spreading_factor,
                job.rng_key,
                exc,
            )

    def _record(self, outcome: DecodeOutcome) -> None:
        with self._lock:
            self._outcomes.append(outcome)
        if outcome.telemetry_delta:
            self.telemetry.merge(outcome.telemetry_delta)
        if outcome.profile_delta and self.profiler is not None:
            self.profiler.merge_state(outcome.profile_delta)
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
                trace=outcome.trace,
            )
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _count_drop(self, job: Optional[DecodeJob] = None) -> None:
        """Count one dropped job, with its shard label when known."""
        self.telemetry.counter("dispatch.dropped").inc()
        if job is not None:
            label = shard_label(job.channel, job.params.spreading_factor)
            self.telemetry.counter(f"{label}.dispatch.dropped").inc()

    # ------------------------------------------------------------------
    # Thread executor
    # ------------------------------------------------------------------
    def _thread_worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            self.telemetry.gauge("dispatch.queue_depth").set(self._queue.qsize())
            self._record(self._decode(job))
            self._queue.task_done()

    def _submit_thread(self, job: DecodeJob) -> bool:
        while True:
            try:
                self._queue.put_nowait(job)
                return True
            except queue.Full:
                if self.drop_policy == "newest":
                    self._count_drop(job)
                    return False
                if self.drop_policy == "block":
                    self._queue.put(job)
                    return True
                # oldest: evict one queued job, then retry the put.
                try:
                    evicted = self._queue.get_nowait()
                    self._queue.task_done()
                    self._count_drop(evicted)
                except queue.Empty:
                    pass  # a worker drained it first; just retry

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
                self._count_drop(job)
                return False
            if self.drop_policy == "oldest":
                with self._lock:
                    pending = sorted(
                        (jid for jid, f in self._futures.items() if not f.done())
                    )
                cancelled = False
                for jid in pending:
                    with self._lock:
                        future = self._futures.get(jid)
                    if future is not None and future.cancel():
                        with self._lock:
                            self._futures.pop(jid, None)
                            self._job_meta.pop(jid, None)
                        self._count_drop()
                        cancelled = True
                        break
                if not cancelled:
                    # Everything already running; drop the incoming job.
                    self._count_drop(job)
                    return False
                continue
            time.sleep(0.001)  # block: poll until a slot frees
        future = self._pool.submit(
            decode_packet_window,
            job,
            job.params,
            self._base_seed,
            synchronize=self.synchronize,
            coding_rate=self.coding_rate,
            sync_search_symbols=self.sync_search_symbols,
            max_users=self.max_users,
            decode_tier=self.decode_tier,
            trace_directive=self._directive(job),
            profile=self.profiler is not None,
        )
        with self._lock:
            self._futures[job.job_id] = future
            self._job_meta[job.job_id] = (
                job.start_sample,
                job.detection_score,
                job.channel,
                job.params.spreading_factor,
                job.rng_key,
            )
        future.add_done_callback(lambda f, jid=job.job_id: self._process_done(jid, f))
        return True

    def _process_done(self, job_id: int, future: "Future[DecodeOutcome]") -> None:
        with self._lock:
            meta = self._job_meta.pop(job_id, None)
            # Drop the completed future so the table tracks only live
            # work; otherwise it grows for the pool's lifetime and every
            # _in_flight() scan pays for all jobs ever submitted.
            self._futures.pop(job_id, None)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            # A worker died outright (the in-worker try/except never got
            # to run); synthesize the error outcome parent-side so no
            # job goes unaccounted and telemetry matches serial runs.
            self.telemetry.counter("decode.errors").inc()
            if meta is not None:
                start_sample, score, channel, sf, rng_key = meta
                self._record(
                    self._error_outcome(
                        job_id, start_sample, score, channel, sf, rng_key, exc
                    )
                )
            return
        self._record(future.result())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, job: DecodeJob) -> bool:
        """Enqueue ``job``; returns False when the drop policy rejected it.

        Dropped jobs (either the incoming one or an evicted older one,
        per policy) are counted under ``dispatch.dropped``.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.telemetry.counter("dispatch.submitted").inc()
        if self.executor == "serial":
            self._record(self._decode(job))
            return True
        if self.executor == "thread":
            accepted = self._submit_thread(job)
            self.telemetry.gauge("dispatch.queue_depth").set(self._queue.qsize())
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
                    if not future.cancelled():
                        try:
                            future.result()
                        except Exception:
                            pass  # already counted in _process_done
                self._pool.shutdown()
        with self._lock:
            return sorted(self._outcomes, key=lambda o: o.job_id)
