"""Profiler sink of the ambient observation context: install/no-op semantics."""

import threading

from repro import observe
from repro.profile import KernelProfiler


class TestAmbientInstall:
    def test_inactive_by_default(self):
        assert observe.current() is None

    def test_use_profiler_installs_and_restores(self):
        profiler = KernelProfiler()
        with observe.scope(profiler=profiler) as observation:
            assert observe.current() is observation
            assert observation.profiler is profiler
        assert observe.current() is None

    def test_use_profiler_none_is_allowed(self):
        # One `with` statement serves both the profiled and unprofiled
        # paths; an empty scope just leaves observation off.
        with observe.scope(profiler=None):
            assert observe.current() is None
            with observe.kernel("anything"):
                pass  # must not raise

    def test_nested_install_restores_outer(self):
        outer, inner = KernelProfiler(), KernelProfiler()
        with observe.scope(profiler=outer):
            with observe.scope(profiler=inner):
                assert observe.current().profiler is inner
            assert observe.current().profiler is outer


class TestAmbientRecording:
    def test_kernel_records_into_installed_profiler(self):
        profiler = KernelProfiler()
        with observe.scope(profiler=profiler):
            with observe.kernel("k", "sf7", fft_count=2, fft_points=256):
                pass
        stats = profiler.stats()
        assert stats[("k", "sf7")]["calls"] == 1
        assert stats[("k", "sf7")]["fft_count"] == 2
        assert stats[("k", "sf7")]["fft_points"] == 256

    def test_kernel_noop_without_profiler(self):
        # The profiling-off path: the block still runs, nothing records.
        ran = False
        with observe.kernel("k"):
            ran = True
        assert ran

    def test_add_attributes_to_innermost_frame(self):
        profiler = KernelProfiler()
        with observe.scope(profiler=profiler):
            with observe.kernel("outer"):
                with observe.kernel("inner"):
                    observe.add(fft_count=3, bytes_touched=64)
        stats = profiler.stats()
        assert stats[("inner", "")]["fft_count"] == 3
        assert stats[("inner", "")]["bytes_touched"] == 64
        assert stats[("outer", "")]["fft_count"] == 0

    def test_add_noop_without_profiler(self):
        observe.add(fft_count=1)  # must not raise

    def test_new_thread_does_not_inherit_profiler(self):
        # ContextVar semantics: a worker thread starts with a fresh
        # context, so a run-level profiler never leaks across threads
        # unless explicitly installed there.
        profiler = KernelProfiler()
        seen = []
        with observe.scope(profiler=profiler):
            t = threading.Thread(
                target=lambda: seen.append(observe.current())
            )
            t.start()
            t.join()
        assert seen == [None]
