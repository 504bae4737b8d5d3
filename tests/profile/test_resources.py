"""ResourceAccountant: bracketing, opt-in allocation tracing, round-trip."""

import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.profile.resources import (
    ResourceAccountant,
    ResourceSummary,
    peak_rss_kb,
    process_cpu,
    summary_from_dict,
)


class TestBracket:
    def test_start_stop_reports_costs(self):
        accountant = ResourceAccountant().start()
        sum(i * i for i in range(20000))
        summary = accountant.stop()
        assert summary.wall_s >= 0.0
        assert summary.cpu_s >= 0.0
        assert summary.peak_rss_kb > 0  # Linux reports real peaks
        assert summary.alloc_peak_kb == 0.0
        assert summary.top_allocations == []

    def test_context_manager_retains_summary(self):
        with ResourceAccountant() as accountant:
            pass
        assert isinstance(accountant.summary, ResourceSummary)

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError, match="before start"):
            ResourceAccountant().stop()

    def test_utilization(self):
        assert ResourceSummary(wall_s=2.0, cpu_s=4.0, peak_rss_kb=1).utilization == 2.0
        assert ResourceSummary(wall_s=0.0, cpu_s=1.0, peak_rss_kb=1).utilization == 0.0


def _burn_cpu(seconds: float) -> float:
    """Spin until this process has used ``seconds`` of CPU."""
    started = time.process_time()
    while time.process_time() - started < seconds:
        pass
    return time.process_time() - started


class TestReapedWorkers:
    def test_worker_cpu_counts_once_the_pool_is_shut_down(self):
        # The parent only waits while its one worker burns 0.3 s of CPU;
        # the bracket must still charge that CPU once shutdown() has
        # reaped the worker (RUSAGE_CHILDREN).
        with ResourceAccountant() as accountant:
            pool = ProcessPoolExecutor(max_workers=1)
            burned = pool.submit(_burn_cpu, 0.3).result()
            pool.shutdown()
        assert burned >= 0.3
        assert accountant.summary.cpu_s >= 0.9 * burned
        # The reaped worker's own peak RSS is reported beside the parent's.
        assert accountant.summary.worker_peak_rss_kb > 0


class TestAllocationTracing:
    def test_opt_in_records_top_sites(self):
        with ResourceAccountant(alloc_top_n=3) as accountant:
            sink = [bytearray(4096) for _ in range(64)]
        del sink
        summary = accountant.summary
        assert summary.alloc_peak_kb > 0.0
        assert 0 < len(summary.top_allocations) <= 3
        site = summary.top_allocations[0]
        assert ":" in site.site and site.size_kb > 0.0
        # Opt-in tracing must not leak past the bracket.
        assert not tracemalloc.is_tracing()

    def test_inner_accountant_leaves_outer_tracing_running(self):
        tracemalloc.start()
        try:
            with ResourceAccountant(alloc_top_n=2):
                pass
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestSummaryRoundTrip:
    def test_to_dict_from_dict(self):
        with ResourceAccountant(alloc_top_n=2) as accountant:
            sink = [bytearray(2048) for _ in range(32)]
        del sink
        state = accountant.summary.to_dict()
        rehydrated = summary_from_dict(state)
        assert rehydrated == accountant.summary
        assert rehydrated.to_dict() == state

    def test_from_partial_dict_defaults(self):
        summary = summary_from_dict({"wall_s": 1.5})
        assert summary.wall_s == 1.5
        assert summary.cpu_s == 0.0
        assert summary.top_allocations == []


class TestWrappers:
    def test_process_cpu_monotone(self):
        before = process_cpu()
        sum(i * i for i in range(20000))
        assert process_cpu() >= before

    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_kb() > 0
