"""Tests for work metering and sweep throughput/utilization accounting.

The sweep runner attributes per-point execution time to worker pids
and ships simulated-work deltas from pool workers back to the parent;
these tests pin down that accounting for the serial (``REPRO_JOBS=1``)
and parallel (``REPRO_JOBS=4``) paths.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import synthetic_phases
from repro.experiments.runner import PointSpec, SweepObserver, run_sweep
from repro.noc.config import NocConfig
from repro.perf import meters

TINY = synthetic_phases(0.04)


def tiny_specs(loads=(0.02, 0.10, 0.20, 0.30)):
    config = NocConfig.multi_noc(2)
    return [
        PointSpec.synthetic(config, "uniform", load, TINY, seed=7)
        for load in loads
    ]


class RecordingObserver(SweepObserver):
    def __init__(self):
        self.stats = None

    def sweep_finished(self, stats):
        self.stats = stats


class TestWorkMeter:
    def test_add_snapshot_reset(self):
        meter = meters.WorkMeter()
        meter.add(100, 400)
        meter.add(1, 2)
        assert meter.snapshot() == (101, 402)
        assert meter.reset() == (101, 402)
        assert meter.snapshot() == (0, 0)

    def test_format_rate(self):
        assert meters.format_rate(875.0) == "875"
        assert meters.format_rate(12_300.0) == "12.3k"
        assert meters.format_rate(4_600_000.0) == "4.6M"
        assert meters.format_rate(1_200_000_000.0) == "1.2G"

    def test_throughput_suffix(self):
        assert meters.throughput_suffix(0, 0, 1.0) == ""
        assert meters.throughput_suffix(100, 100, 0.0) == ""
        suffix = meters.throughput_suffix(1_200_000, 4_600_000, 1.0)
        assert suffix == "1.2M cycles/s, 4.6M flits/s"


class _UtilizationMixin:
    jobs = 1

    def run(self):
        specs = tiny_specs()
        observer = RecordingObserver()
        before = meters.WORK.snapshot()
        rows = run_sweep(
            specs, jobs=self.jobs, cache=None, observers=[observer]
        )
        after = meters.WORK.snapshot()
        return specs, rows, observer.stats, before, after

    def test_utilization_accounting(self):
        specs, rows, stats, before, after = self.run()
        assert len(rows) == len(specs)
        assert stats.workers == min(self.jobs, len(specs))
        assert stats.exec_wall_seconds > 0
        # Busy time is attributed per worker pid and sums to the total
        # in-point execution time exactly (same floats, same source).
        busy = sum(stats.worker_busy_seconds.values())
        assert busy == pytest.approx(sum(stats.point_seconds))
        assert len(stats.worker_busy_seconds) <= stats.workers
        # Utilization is a fraction of the execution section; points
        # dominate it, so it must be high but can never exceed 1 by
        # more than clock-resolution noise.
        utilization = stats.worker_utilization()
        assert 0.0 < utilization <= 1.001
        if self.jobs == 1:
            # Serial: the lone worker is busy the whole section except
            # cache/observer glue around the points.
            assert busy <= stats.exec_wall_seconds * 1.001
            assert utilization > 0.5

    def test_sim_work_flows_to_stats_and_process_meter(self):
        specs, rows, stats, before, after = self.run()
        # Each synthetic point simulates warmup+measure+cooldown plus
        # drain; the reported cycle totals ride back through the stats.
        assert stats.sim_cycles >= len(specs) * TINY.total
        assert stats.sim_flits > 0
        # ... and into this process's lifetime meter, whether the work
        # happened in-process (serial) or in forked workers (shipped
        # deltas folded in by the parent).
        assert after[0] - before[0] == stats.sim_cycles
        assert after[1] - before[1] == stats.sim_flits


class TestSerialUtilization(_UtilizationMixin):
    jobs = 1


class TestParallelUtilization(_UtilizationMixin):
    jobs = 4


class TestCachedSweepMetering:
    def test_cache_hits_simulate_nothing(self, tmp_path):
        from repro.experiments.runner import SweepCache

        specs = tiny_specs(loads=(0.02, 0.10))
        cache = SweepCache(tmp_path)
        run_sweep(specs, jobs=1, cache=cache)
        observer = RecordingObserver()
        before = meters.WORK.snapshot()
        run_sweep(specs, jobs=1, cache=cache, observers=[observer])
        assert observer.stats.cache_hits == len(specs)
        assert observer.stats.sim_cycles == 0
        assert observer.stats.sim_flits == 0
        assert observer.stats.workers == 0
        assert observer.stats.worker_utilization() == 0.0
        assert meters.WORK.snapshot() == before


class TestProgressLine:
    def test_sweep_summary_line_carries_rates_and_utilization(self):
        import io

        from repro.experiments.runner import ProgressObserver

        stream = io.StringIO()
        observer = ProgressObserver(stream=stream)
        run_sweep(
            tiny_specs(loads=(0.02,)), jobs=1, cache=None, observers=[observer]
        )
        summary = stream.getvalue().splitlines()[-1]
        assert "cycles/s" in summary
        assert "flits/s" in summary
        assert "% busy" in summary

    def test_nothing_simulated_prints_no_rates(self):
        import io

        from repro.experiments.runner import ProgressObserver, SweepStats

        stream = io.StringIO()
        observer = ProgressObserver(stream=stream)
        observer.sweep_finished(SweepStats(points=3, cache_hits=3))
        summary = stream.getvalue()
        assert "cycles/s" not in summary
        assert "% busy" not in summary


class TestPointMeterIsolation:
    def test_begin_point_drops_inherited_totals(self):
        meters._POINT.add(5, 5)
        meters.begin_point()
        assert meters.drain_point() == (0, 0)

    def test_note_report_feeds_both_meters(self):
        fabric_cycles = 123
        activity = [{"crossbar_traversals": 7}, {"crossbar_traversals": 3}]

        class FakeReport:
            cycles = fabric_cycles

        FakeReport.activity = activity
        before = meters.WORK.snapshot()
        meters.begin_point()
        meters.note_report(FakeReport())
        assert meters.drain_point() == (123, 10)
        after = meters.WORK.snapshot()
        assert (after[0] - before[0], after[1] - before[1]) == (123, 10)


def test_env_jobs_respected_in_worker_count(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    observer = RecordingObserver()
    run_sweep(tiny_specs(), cache=None, observers=[observer])
    assert observer.stats.workers == 3
    monkeypatch.delenv("REPRO_JOBS")
    assert "REPRO_JOBS" not in os.environ
