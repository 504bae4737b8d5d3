"""Unit tests for the runtime race witness."""

from __future__ import annotations

import threading
from pathlib import Path

from repro.tools.analysis import witness as witness_mod
from repro.tools.analysis.witness import (
    LockProxy,
    attach,
    cross_check,
    install,
    static_verdicts,
)

RACY_SOURCE = """\
import threading

class Racy:
    def __init__(self):
        self._lock = threading.Lock()
        self._log = []
        threading.Thread(target=self._worker).start()

    def _worker(self):
        self._log.append(1)  # noqa: R009 -- fixture: deliberate race
"""


class Racy:
    def __init__(self):
        self._lock = threading.Lock()
        self._log = []

    def poke(self):
        self._log.append(threading.get_ident())

    def poke_guarded(self):
        with self._lock:
            self._log.append(threading.get_ident())


def run_in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


class TestEventLog:
    def test_rebind_and_mutate_events_recorded(self):
        obj = Racy()
        witness = attach(obj)
        obj._log.append(1)
        obj.fresh = 2
        kinds = [(e.attr, e.kind) for e in witness.write_events()]
        assert ("_log", "mutate") in kinds
        assert ("fresh", "rebind") in kinds

    def test_sequence_is_strictly_increasing(self):
        obj = Racy()
        witness = attach(obj)
        for _ in range(5):
            obj.poke()
        seqs = [e.seq for e in witness.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_lock_proxy_tracks_held_set(self):
        obj = Racy()
        witness = attach(obj)
        assert isinstance(obj._lock, LockProxy)
        obj.poke_guarded()
        mutates = [e for e in witness.write_events() if e.kind == "mutate"]
        assert mutates and mutates[0].locks == frozenset({"_lock"})

    def test_unguarded_write_has_empty_lock_set(self):
        obj = Racy()
        witness = attach(obj)
        obj.poke()
        mutates = [e for e in witness.write_events() if e.kind == "mutate"]
        assert mutates[0].locks == frozenset()

    def test_semaphore_released_elsewhere_guards_nothing(self):
        # A slot taken here and given back by another thread must not
        # leave this thread looking as if it still held a lock.
        obj = Racy()
        obj._slots = threading.BoundedSemaphore(1)
        witness = attach(obj)
        obj._slots.acquire()
        run_in_thread(obj._slots.release)
        obj.poke()
        mutates = [e for e in witness.write_events() if e.kind == "mutate"]
        assert mutates[0].locks == frozenset()


class TestSharedWriteDetection:
    def test_single_thread_writes_are_not_shared(self):
        obj = Racy()
        witness = attach(obj)
        obj.poke()
        assert witness.shared_written_attrs() == []
        assert witness.unguarded_shared_writes() == []

    def test_cross_thread_unguarded_write_is_caught(self):
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke)
        assert witness.shared_written_attrs() == ["_log"]
        unguarded = witness.unguarded_shared_writes()
        assert unguarded and unguarded[0].attr == "_log"

    def test_cross_thread_guarded_write_is_clean(self):
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke_guarded)
        assert witness.shared_written_attrs() == ["_log"]
        assert witness.unguarded_shared_writes() == []


class TestCrossCheck:
    def test_guarded_write_with_guarded_verdict_passes(self):
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke_guarded)
        assert cross_check(witness, {"_log": "guarded", "_lock": "lock"}) == []

    def test_unguarded_write_fails_even_if_classified(self):
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke)
        problems = cross_check(witness, {"_log": "guarded"})
        assert any("unguarded shared write" in p for p in problems)

    def test_statically_invisible_write_fails(self):
        # Static analysis thought the attr was main-thread-only.
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke_guarded)
        problems = cross_check(witness, {"_log": "unshared"})
        assert any("statically unclassified" in p for p in problems)

    def test_suppressed_verdict_is_accepted(self):
        obj = Racy()
        witness = attach(obj)
        run_in_thread(obj.poke_guarded)
        assert cross_check(witness, {"_log": "suppressed"}) == []


class TestStaticVerdicts:
    def test_verdicts_from_fixture_tree(self, tmp_path):
        (tmp_path / "fixture.py").write_text(RACY_SOURCE)
        verdicts = static_verdicts("fixture.Racy", [tmp_path])
        assert verdicts["_lock"] == "lock"
        # The deliberate race carries a noqa justification, so the
        # static side reports it as suppressed, not unguarded.
        assert verdicts["_log"] == "suppressed"


class TestInstall:
    def test_install_wraps_and_restores_init(self):
        original_init = Racy.__init__
        with install(Racy) as observed:
            obj = Racy()
            obj.poke()
        assert Racy.__init__ is original_init
        assert len(observed) == 1
        instance, witness = observed[0]
        assert instance is obj
        assert witness.write_events()

    def test_install_catches_race_in_scope(self):
        with install(Racy) as observed:
            obj = Racy()
            run_in_thread(obj.poke)
        _, witness = observed[0]
        assert witness.unguarded_shared_writes()


class TestModuleIsClean:
    def test_witness_module_passes_its_own_linter(self):
        from repro.tools.analysis.engine import lint_paths

        path = Path(witness_mod.__file__)
        assert lint_paths([path]) == []
