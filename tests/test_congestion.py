"""Tests for local congestion metrics and the hysteresis latch."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import small_fabric

from repro.core.congestion import (
    BlockingDelayMetric,
    BufferAverageMetric,
    BufferMaxMetric,
    HysteresisLatch,
    InjectionQueueMetric,
    InjectionRateMetric,
    make_metric,
)
from repro.noc.config import CongestionConfig


class FakeRouter:
    """Just enough router surface for the metrics."""

    def __init__(self, occupancies, subnet=0):
        self._occ = occupancies
        self.subnet = subnet
        self.held = sum(occupancies)
        self.blocked_accum = 0
        self.moved_accum = 0

    def max_port_occupancy(self):
        return max(self._occ)

    def mean_port_occupancy(self):
        return sum(self._occ) / len(self._occ)


class FakeNi:
    def __init__(self, rate=0.0, queue_flits=0, subnet_rates=None):
        self._rate = rate
        self._queue = queue_flits
        self._subnet_rates = subnet_rates or {}

    def injection_rate(self):
        return self._rate

    def subnet_injection_rate(self, subnet):
        return self._subnet_rates.get(subnet, 0.0)

    def queue_occupancy_flits(self):
        return self._queue


class TestBufferMax:
    def test_triggers_on_single_hot_port(self):
        metric = BufferMaxMetric(9)
        router = FakeRouter([0, 0, 0, 0, 10])
        assert metric.evaluate(0, router, FakeNi())

    def test_below_threshold(self):
        metric = BufferMaxMetric(9)
        assert not metric.evaluate(0, FakeRouter([8, 8, 8, 8, 8]), FakeNi())

    def test_fast_path_consistency(self):
        """Early-out must agree with the full computation."""
        metric = BufferMaxMetric(9)
        router = FakeRouter([2, 2, 2, 1, 1])  # total 8 < 9
        assert not metric.evaluate(0, router, FakeNi())


class TestBufferAverage:
    def test_misses_single_path_congestion(self):
        """The paper's argument against BFA: empty ports mask hot ones."""
        metric = BufferAverageMetric(2.0)
        hot_one_port = FakeRouter([9, 0, 0, 0, 0])
        assert not metric.evaluate(0, hot_one_port, FakeNi())
        bfm = BufferMaxMetric(9)
        assert bfm.evaluate(0, hot_one_port, FakeNi())

    def test_triggers_on_uniform_fill(self):
        metric = BufferAverageMetric(2.0)
        assert metric.evaluate(0, FakeRouter([2, 2, 2, 2, 2]), FakeNi())


class TestInjectionRate:
    def test_per_subnet_rate_thresholded(self):
        metric = InjectionRateMetric(0.1, 64)
        ni = FakeNi(subnet_rates={0: 0.15, 1: 0.05})
        assert metric.evaluate(0, FakeRouter([0] * 5, subnet=0), ni)
        assert not metric.evaluate(0, FakeRouter([0] * 5, subnet=1), ni)

    def test_escalation_caps_per_subnet_share(self):
        """Once every used subnet hits the threshold, all read congested."""
        metric = InjectionRateMetric(0.1, 64)
        ni = FakeNi(subnet_rates={0: 0.11, 1: 0.11, 2: 0.11, 3: 0.02})
        congested = [
            metric.evaluate(0, FakeRouter([0] * 5, subnet=s), ni)
            for s in range(4)
        ]
        assert congested == [True, True, True, False]


class TestInjectionQueue:
    def test_node_wide_signal(self):
        metric = InjectionQueueMetric(4, 16)
        ni = FakeNi(queue_flits=5)
        assert metric.evaluate(0, FakeRouter([0] * 5, subnet=0), ni)
        assert metric.evaluate(0, FakeRouter([0] * 5, subnet=3), ni)

    def test_capacity_clamp(self):
        metric = InjectionQueueMetric(4, 16)
        assert metric.evaluate(0, FakeRouter([0] * 5), FakeNi(queue_flits=999))

    def test_below_threshold(self):
        metric = InjectionQueueMetric(4, 16)
        assert not metric.evaluate(0, FakeRouter([0] * 5), FakeNi(queue_flits=3))


class TestBlockingDelay:
    def test_high_blocking_triggers(self):
        metric = BlockingDelayMetric(1.5, sample_period=4)
        router = FakeRouter([0] * 5)
        for cycle in range(0, 64, 4):
            router.blocked_accum += 40
            router.moved_accum += 4
            metric.evaluate(cycle, router, FakeNi())
        assert metric.evaluate(64, router, FakeNi())

    def test_low_blocking_does_not_trigger(self):
        metric = BlockingDelayMetric(1.5, sample_period=4)
        router = FakeRouter([0] * 5)
        for cycle in range(0, 64, 4):
            router.blocked_accum += 2
            router.moved_accum += 4
        assert not metric.evaluate(64, router, FakeNi())

    def test_needs_blocking_counters_flag(self):
        assert BlockingDelayMetric(1.5, 8).needs_blocking_counters
        assert not BufferMaxMetric(9).needs_blocking_counters

    @pytest.mark.parametrize("metric", ["bfm", "bfa", "ir", "iqocc", "delay"])
    def test_only_ir_makes_nis_track_rates(self, metric):
        fabric = small_fabric(congestion=CongestionConfig(metric=metric))
        tracked = metric == "ir"
        built = make_metric(fabric.config.congestion)
        assert built.needs_injection_rate == tracked
        assert fabric.monitor.needs_injection_rate == tracked
        assert all(ni.track_rate == tracked for ni in fabric.nis)


class TestHysteresisLatch:
    def test_sets_immediately(self):
        latch = HysteresisLatch(6)
        assert latch.update(0, True)

    def test_holds_for_minimum_cycles(self):
        latch = HysteresisLatch(6)
        latch.update(0, True)
        for cycle in range(1, 6):
            assert latch.update(cycle, False), f"dropped early at {cycle}"
        assert not latch.update(6, False)

    def test_retrigger_extends_hold(self):
        latch = HysteresisLatch(6)
        latch.update(0, True)
        latch.update(4, True)  # re-trigger
        assert latch.update(9, False)
        assert not latch.update(10, False)

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_latch_state_true_whenever_raw_true(self, raws):
        latch = HysteresisLatch(3)
        for cycle, raw in enumerate(raws):
            state = latch.update(cycle, raw)
            if raw:
                assert state


class TestMakeMetric:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("bfm", BufferMaxMetric),
            ("bfa", BufferAverageMetric),
            ("ir", InjectionRateMetric),
            ("iqocc", InjectionQueueMetric),
            ("delay", BlockingDelayMetric),
        ],
    )
    def test_builds_each_metric(self, name, cls):
        config = CongestionConfig(metric=name)
        assert isinstance(make_metric(config), cls)
