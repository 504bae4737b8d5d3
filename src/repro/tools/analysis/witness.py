"""Runtime race witness: dynamic cross-check of the R009 verdicts.

Static analysis says which shared attributes of a worker pool are
lock-guarded; the witness checks the claim against reality.  It
instruments a live object (normally a
:class:`~repro.gateway.workers.DecodeWorkerPool`) under a test flag:

* every lock attribute is wrapped in a :class:`LockProxy` that tracks,
  per thread, which locks are currently held;
* every list/dict attribute is wrapped in an observing container that
  reports in-place mutations;
* the instance's class is swapped for a generated subclass whose
  ``__setattr__`` reports attribute rebinds;

producing a happens-before log: a globally sequenced stream of
:class:`WriteEvent` records, each stamped with the writing thread and
the lock set it held.  :func:`cross_check` then demands that every
*dynamically shared* write (an attribute written outside the thread
that attached the witness, or by two different threads) was statically
classified as safe -- guarded, suppressed with justification,
synchronized, or a lock itself.  Anything else is an unclassified
shared write: either a real race or a blind spot in R009.  Both fail
the witness test.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple, Type

from repro.tools.analysis.concurrency import SAFE_CLASSIFICATIONS, ConcurrencyAnalysis
from repro.tools.analysis.engine import _iter_python_files, build_module_model
from repro.tools.analysis.project import Project

# No semaphores: any thread may release one (the decode pool's admission
# gate is released by whichever thread finishes the job), so "held by the
# acquiring thread" would mark that thread's later writes as guarded.
_LOCK_TYPES = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
)


@dataclass(frozen=True)
class WriteEvent:
    """One observed mutation, stamped for happens-before reconstruction."""

    seq: int
    thread: int
    attr: str
    kind: str  # "rebind" | "mutate" | "acquire" | "release"
    locks: FrozenSet[str]


class Witness:
    """Event recorder shared by every proxy attached to one object."""

    def __init__(self) -> None:
        self.events: List[WriteEvent] = []
        self.attached_thread = threading.get_ident()
        self._seq = 0
        self._log_lock = threading.Lock()
        self._tls = threading.local()

    # -- lock bookkeeping -----------------------------------------------

    def _held(self) -> Set[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = set()
            self._tls.held = held
        return held

    def record(self, attr: str, kind: str) -> None:
        """Append one event to the happens-before log."""
        with self._log_lock:
            self._seq += 1
            self.events.append(
                WriteEvent(
                    seq=self._seq,
                    thread=threading.get_ident(),
                    attr=attr,
                    kind=kind,
                    locks=frozenset(self._held()),
                )
            )

    # -- verdicts -------------------------------------------------------

    def write_events(self) -> List[WriteEvent]:
        """All rebind/mutate events (lock traffic filtered out)."""
        return [e for e in self.events if e.kind in ("rebind", "mutate")]

    def shared_written_attrs(self) -> List[str]:
        """Attributes written outside the attaching thread (or by 2+ threads)."""
        writers: Dict[str, Set[int]] = {}
        for event in self.write_events():
            writers.setdefault(event.attr, set()).add(event.thread)
        return sorted(
            attr
            for attr, threads in writers.items()
            if len(threads) > 1 or threads != {self.attached_thread}
        )

    def unguarded_shared_writes(self) -> List[WriteEvent]:
        """Shared writes performed while holding no lock at all."""
        shared = set(self.shared_written_attrs())
        return [
            e for e in self.write_events() if e.attr in shared and not e.locks
        ]


class LockProxy:
    """Wraps a real lock; mirrors acquire/release into the witness log."""

    def __init__(self, witness: Witness, name: str, real: Any) -> None:
        self._witness = witness
        self._name = name
        self._real = real

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        """Acquire the real lock, then log the acquisition."""
        acquired = self._real.acquire(*args, **kwargs)
        if acquired:
            self._witness._held().add(self._name)
            self._witness.record(self._name, "acquire")
        return acquired

    def release(self) -> None:
        """Log the release, then release the real lock."""
        self._witness.record(self._name, "release")
        self._witness._held().discard(self._name)
        self._real.release()

    def __enter__(self) -> "LockProxy":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __getattr__(self, item: str) -> Any:
        return getattr(self._real, item)


class ObservedList(list):
    """List that reports in-place mutation to the witness."""

    def __init__(self, witness: Witness, attr: str,
                 items: Iterable[Any] = ()) -> None:
        super().__init__(items)
        self._witness = witness
        self._attr = attr

    def _note(self) -> None:
        self._witness.record(self._attr, "mutate")


class ObservedDict(dict):
    """Dict that reports in-place mutation to the witness."""

    def __init__(self, witness: Witness, attr: str,
                 items: Any = ()) -> None:
        super().__init__(items)
        self._witness = witness
        self._attr = attr

    def _note(self) -> None:
        self._witness.record(self._attr, "mutate")


def _install_observers() -> None:
    """Generate the mutating-method overrides on the observed containers."""

    def make(base: type, name: str) -> Any:
        underlying = getattr(base, name)

        def method(self: Any, *args: Any, **kwargs: Any) -> Any:
            self._note()
            return underlying(self, *args, **kwargs)

        method.__name__ = name
        method.__doc__ = f"``{base.__name__}.{name}`` with a witness mutate event."
        return method

    for name in ("append", "extend", "insert", "remove", "pop", "clear",
                 "sort", "reverse", "__setitem__", "__delitem__", "__iadd__"):
        setattr(ObservedList, name, make(list, name))
    for name in ("pop", "popitem", "clear", "update", "setdefault",
                 "__setitem__", "__delitem__"):
        setattr(ObservedDict, name, make(dict, name))


_install_observers()


def attach(obj: Any) -> Witness:
    """Instrument ``obj`` in place and return its witness.

    Locks become :class:`LockProxy`, plain lists/dicts become observing
    containers, and the instance's class is swapped for a generated
    subclass whose ``__setattr__`` logs every rebind.  The object keeps
    working exactly as before -- only observed.
    """
    witness = Witness()
    for name, value in list(vars(obj).items()):
        if isinstance(value, _LOCK_TYPES):
            object.__setattr__(obj, name, LockProxy(witness, name, value))
        elif type(value) is list:
            object.__setattr__(obj, name, ObservedList(witness, name, value))
        elif type(value) is dict:
            object.__setattr__(obj, name, ObservedDict(witness, name, value))

    cls = obj.__class__

    def recording_setattr(self: Any, name: str, value: Any) -> None:
        witness.record(name, "rebind")
        object.__setattr__(self, name, value)

    instrumented: Type[Any] = type(
        f"Witnessed{cls.__name__}", (cls,), {"__setattr__": recording_setattr}
    )
    obj.__class__ = instrumented
    return witness


@contextmanager
def install(pool_cls: type) -> Iterator[List[Tuple[Any, Witness]]]:
    """Auto-attach a witness to every ``pool_cls`` constructed in scope.

    Lets e2e tests observe pools the gateway builds internally::

        with install(DecodeWorkerPool) as observed:
            gateway.run(...)
        for pool, witness in observed:
            assert not witness.unguarded_shared_writes()
    """
    observed: List[Tuple[Any, Witness]] = []
    original_init = pool_cls.__init__

    def wrapped_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        observed.append((self, attach(self)))

    pool_cls.__init__ = wrapped_init
    try:
        yield observed
    finally:
        pool_cls.__init__ = original_init


def static_verdicts(qualname: str, roots: Iterable[Path]) -> Dict[str, str]:
    """R009 per-attribute verdicts for ``qualname`` over a source tree."""
    models = []
    for path in _iter_python_files(roots):
        model, _ = build_module_model(path.read_text(encoding="utf-8"), path)
        if model is not None:
            models.append(model)
    analysis = ConcurrencyAnalysis(Project(models))
    return analysis.classify_attrs(qualname)


def cross_check(witness: Witness, verdicts: Dict[str, str]) -> List[str]:
    """Dynamically shared writes the static analysis failed to classify.

    Returns problem strings (empty == witness passes).  A shared write
    is accounted for when its attribute's static verdict is in
    :data:`~repro.tools.analysis.concurrency.SAFE_CLASSIFICATIONS` and
    *not* ``unshared``/``readonly`` -- a write the static pass thought
    impossible is exactly the blind spot the witness exists to catch.
    """
    problems: List[str] = []
    for event in witness.unguarded_shared_writes():
        problems.append(
            f"unguarded shared write: self.{event.attr} from thread "
            f"{event.thread} (seq {event.seq}) with no lock held"
        )
    for attr in witness.shared_written_attrs():
        verdict = verdicts.get(attr)
        if verdict is None or verdict in ("unshared", "readonly"):
            problems.append(
                f"statically unclassified shared write: self.{attr} "
                f"(static verdict: {verdict})"
            )
        elif verdict not in SAFE_CLASSIFICATIONS:
            problems.append(
                f"shared write to self.{attr} statically classified "
                f"as {verdict}"
            )
    return problems
