"""KernelProfiler: self-time accounting, state round-trips, exports."""

import json

from repro.profile import KernelProfiler, shape_bucket
from repro.profile.profiler import PROFILE_FORMAT, UNTRACKED


def busy(profiler, name, shape="", children=()):
    """Open a frame, recurse into children, close it."""
    with profiler.kernel(name, shape):
        for child in children:
            busy(profiler, *child)


class TestShapeBucket:
    def test_powers_of_two_are_fixed_points(self):
        for n in (1, 2, 64, 1024):
            assert shape_bucket(n) == n

    def test_rounds_up(self):
        assert shape_bucket(3) == 4
        assert shape_bucket(65) == 128
        assert shape_bucket(1025) == 2048

    def test_degenerate_sizes(self):
        assert shape_bucket(0) == 1
        assert shape_bucket(-5) == 1


class TestAccounting:
    def test_stats_row_shape(self):
        profiler = KernelProfiler()
        with profiler.kernel("k", "sf7", fft_count=1, fft_points=128,
                             bytes_touched=32):
            pass
        row = profiler.stats()[("k", "sf7")]
        assert set(row) == {
            "calls", "wall_s", "max_wall_s",
            "fft_count", "fft_points", "bytes_touched",
        }
        assert row["calls"] == 1
        assert row["wall_s"] >= 0.0
        assert row["max_wall_s"] >= row["wall_s"] / max(row["calls"], 1)

    def test_self_time_is_additive(self):
        # Nested frames subtract child elapsed from the parent, so the
        # summed self time across the table never exceeds the root's
        # elapsed wall time.
        profiler = KernelProfiler()
        busy(profiler, "root", "", [("a",), ("b", "", [("c",)])])
        state = profiler.state()
        assert profiler.total_wall_s() <= state["root_wall_s"] + 1e-9
        assert state["roots"] == 1

    def test_paths_record_the_stack(self):
        profiler = KernelProfiler()
        busy(profiler, "root", "", [("a",), ("b", "", [("c",)])])
        assert set(profiler.state()["paths"]) == {
            "root", "root;a", "root;b", "root;b;c",
        }

    def test_kernel_wall_sums_across_shapes(self):
        profiler = KernelProfiler()
        for shape in ("sf7", "sf8"):
            with profiler.kernel("k", shape):
                pass
        assert profiler.kernel_wall_s("k") >= 0.0
        assert len(profiler) == 2

    def test_add_outside_any_frame_lands_on_untracked(self):
        profiler = KernelProfiler()
        profiler.add(fft_count=4, fft_points=512)
        row = profiler.stats()[(UNTRACKED, "")]
        assert row["fft_count"] == 4
        assert row["calls"] == 0  # no timed invocation, just work

    def test_add_cpu_accumulates(self):
        profiler = KernelProfiler()
        profiler.add_cpu(0.25)
        profiler.add_cpu(0.5)
        assert profiler.cpu_s == 0.75


class TestPortableState:
    def test_state_is_json_round_trippable(self):
        profiler = KernelProfiler()
        busy(profiler, "root", "sf7", [("a", "C64")])
        state = json.loads(json.dumps(profiler.state()))
        assert state["format"] == PROFILE_FORMAT
        assert "a|C64" in state["kernels"]
        assert "root|sf7" in state["kernels"]

    def test_merge_state_sums_counts_and_maxes_max(self):
        a, b = KernelProfiler(), KernelProfiler()
        for p in (a, b):
            with p.kernel("k", "sf7", fft_count=2):
                pass
        sa, sb = a.state(), b.state()
        a.merge_state(sb)
        row = a.stats()[("k", "sf7")]
        assert row["calls"] == 2
        assert row["fft_count"] == 4
        assert row["max_wall_s"] == max(
            sa["kernels"]["k|sf7"]["max_wall_s"],
            sb["kernels"]["k|sf7"]["max_wall_s"],
        )
        merged = a.state()
        assert merged["roots"] == 2

    def test_merge_instance_equivalent_to_merge_state(self):
        a, b = KernelProfiler(), KernelProfiler()
        with b.kernel("k"):
            pass
        a.merge(b)
        assert a.stats()[("k", "")]["calls"] == 1

    def test_merge_into_empty_reproduces_source(self):
        # The executor propagation path: a job-local profiler's state
        # folded into a fresh run-level one must lose nothing.
        src, dst = KernelProfiler(), KernelProfiler()
        busy(src, "decode.window", "sf7", [("dechirp", "N128")])
        src.add_cpu(0.1)
        dst.merge_state(src.state())
        assert dst.state() == src.state()


class TestExports:
    def test_collapsed_stack_format(self):
        profiler = KernelProfiler()
        busy(profiler, "root", "", [("a",)])
        text = profiler.collapsed()
        assert text.endswith("\n")
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            path, _, micros = line.rpartition(" ")
            assert path in ("root", "root;a")
            assert int(micros) >= 1

    def test_chrome_events_widths_nest(self):
        profiler = KernelProfiler()
        busy(profiler, "root", "", [("a",), ("b",)])
        events = profiler.chrome_events(pid=7)
        assert events[0]["ph"] == "M"
        frames = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(frames) == {"root", "a", "b"}
        # Children tile inside the parent strip.
        root = frames["root"]
        for child in ("a", "b"):
            assert frames[child]["ts"] >= root["ts"]
            assert (frames[child]["ts"] + frames[child]["dur"]
                    <= root["ts"] + root["dur"] + 1e-6)
