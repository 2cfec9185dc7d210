"""Local congestion metrics (paper §3.2.1 and §3.4).

Each node evaluates, every cycle and per subnet, a *local congestion
status* (LCS) from its local router and network interface.  The paper
studies five metrics:

* **BFM** — maximum input-buffer occupancy over the local router's ports
  (the winning metric; threshold 9 flits).
* **BFA** — average input-buffer occupancy (threshold 2 flits).
* **IR**  — the node's packet injection rate (threshold swept in Fig 13).
* **IQOcc** — occupancy of the NI injection queue (threshold 4 flits).
* **Delay** — sampled average blocking delay per flit (threshold 1.5).

For stability every metric output passes through a hysteresis latch:
once congested, the status holds for a minimum number of cycles before
it may reset (paper: "once a subnet is declared congested, it remains in
that status for a few cycles").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.noc.config import CongestionConfig

if TYPE_CHECKING:
    from repro.noc.interface import NetworkInterface
    from repro.noc.router import Router

__all__ = [
    "LocalCongestionMetric",
    "BufferMaxMetric",
    "BufferAverageMetric",
    "InjectionRateMetric",
    "InjectionQueueMetric",
    "BlockingDelayMetric",
    "HysteresisLatch",
    "make_metric",
]


class LocalCongestionMetric(ABC):
    """Raw (unlatched) congestion signal for one (node, subnet) pair."""

    #: Whether routers must maintain blocking-delay counters for this
    #: metric (only the Delay metric needs them).
    needs_blocking_counters = False
    #: Whether NIs must maintain their windowed injection-rate averages
    #: for this metric (only the IR metric reads them).
    needs_injection_rate = False

    @abstractmethod
    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        """Return True when the subnet looks congested at this node."""


class BufferMaxMetric(LocalCongestionMetric):
    """BFM: max input-port occupancy of the local router >= threshold.

    The paper's chosen metric — its threshold is independent of the
    traffic pattern, and the hardware is a max over five counters.
    """

    def __init__(self, threshold_flits: int) -> None:
        self.threshold_flits = threshold_flits

    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        # The max over ports can't reach the threshold unless the whole
        # router holds at least that many flits (cheap early-out; held
        # also counts flits still on a link toward the router).
        if router.held < self.threshold_flits:
            return False
        return router.max_port_occupancy() >= self.threshold_flits


class BufferAverageMetric(LocalCongestionMetric):
    """BFA: mean input-port occupancy >= threshold.

    Fails when congestion runs along few paths: empty ports drag the
    average down and the metric misses it (paper §3.4.2).
    """

    def __init__(self, threshold_flits: float) -> None:
        self.threshold_flits = threshold_flits

    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        # mean >= threshold requires total >= threshold * num_ports.
        if router.held < self.threshold_flits * 5:
            return False
        return router.mean_port_occupancy() >= self.threshold_flits


class InjectionRateMetric(LocalCongestionMetric):
    """IR: the node's injection rate into a subnet, packets/node/cycle.

    A subnet reads congested at a node once the node's windowed
    injection rate into it reaches the threshold, so escalation caps
    each subnet's share of this node's traffic at the threshold.  The
    usable threshold equals the per-subnet saturation rate — which
    varies with the traffic pattern (Figure 13) — and that is exactly
    why the paper rejects IR in favour of BFM.
    """

    needs_injection_rate = True

    def __init__(self, threshold: float, window: int) -> None:
        self.threshold = threshold
        self.window = window

    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        return ni.subnet_injection_rate(router.subnet) >= self.threshold


class InjectionQueueMetric(LocalCongestionMetric):
    """IQOcc: NI injection-queue occupancy >= threshold flits.

    Reacts only after the local router's buffers have already filled and
    backpressure reaches the NI, so it is too slow (paper §3.4.3).  The
    signal is node-wide: when the queue backs up, every subnet at this
    node reads congested.
    """

    def __init__(self, threshold_flits: int, capacity_flits: int) -> None:
        self.threshold_flits = threshold_flits
        self.capacity_flits = capacity_flits

    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        occupancy = min(ni.queue_occupancy_flits(), self.capacity_flits)
        return occupancy >= self.threshold_flits


class BlockingDelayMetric(LocalCongestionMetric):
    """Delay: sampled average blocking delay per flit >= threshold.

    Approximated (as the paper's own sampled variant is) by a moving
    average of head-flit wait cycles per forwarded flit, read from the
    router's blocking counters every ``sample_period`` cycles.
    """

    needs_blocking_counters = True

    def __init__(self, threshold_cycles: float, sample_period: int) -> None:
        self.threshold_cycles = threshold_cycles
        self.sample_period = sample_period
        self._average = 0.0
        self._last_blocked = 0
        self._last_moved = 0

    def evaluate(
        self, cycle: int, router: "Router", ni: "NetworkInterface"
    ) -> bool:
        if cycle % self.sample_period == 0:
            blocked = router.blocked_accum - self._last_blocked
            moved = router.moved_accum - self._last_moved
            self._last_blocked = router.blocked_accum
            self._last_moved = router.moved_accum
            sample = blocked / moved if moved else (
                float(blocked > 0) * self.threshold_cycles * 2
            )
            self._average = 0.5 * self._average + 0.5 * sample
        return self._average >= self.threshold_cycles


class HysteresisLatch:
    """Latch a boolean signal with a minimum hold time.

    The latch sets immediately when the raw signal rises and may only
    clear after ``hold_cycles`` cycles with the raw signal low.
    """

    __slots__ = ("hold_cycles", "state", "_held_until")

    def __init__(self, hold_cycles: int) -> None:
        self.hold_cycles = hold_cycles
        self.state = False
        self._held_until = -1

    def update(self, cycle: int, raw: bool) -> bool:
        """Feed the raw signal for ``cycle``; return the latched state."""
        if raw:
            self.state = True
            self._held_until = cycle + self.hold_cycles
        elif self.state and cycle >= self._held_until:
            self.state = False
        return self.state


def make_metric(
    config: CongestionConfig, subnet: int = 0
) -> LocalCongestionMetric:
    """Build the configured local congestion metric.

    A fresh instance is returned per (node, subnet) because some metrics
    (Delay) carry per-router sampling state.
    """
    if config.metric == "bfm":
        return BufferMaxMetric(config.bfm_threshold_flits)
    if config.metric == "bfa":
        return BufferAverageMetric(config.bfa_threshold_flits)
    if config.metric == "ir":
        return InjectionRateMetric(
            config.injection_rate_threshold, config.injection_rate_window
        )
    if config.metric == "iqocc":
        return InjectionQueueMetric(
            config.iqocc_threshold_flits, capacity_flits=16
        )
    if config.metric == "delay":
        return BlockingDelayMetric(
            config.delay_threshold_cycles, config.delay_sample_period
        )
    raise ValueError(f"unknown congestion metric {config.metric!r}")
