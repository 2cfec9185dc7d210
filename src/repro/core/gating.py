"""Router power-gating controller (paper §3.1, §3.3).

Implements the power state machine of Figure 5 and both gating policies
evaluated in the paper:

* **RCS policy (Catnap)** — a router in subnet *h* switches off when its
  buffers have been empty for ``T-idle-detect`` consecutive cycles *and*
  the congestion status of subnet *h−1* is off; it wakes when that
  status turns on, or when an upstream router / the local NI issues a
  look-ahead wakeup.  Subnet 0 stays always-on.
* **Baseline policy (Matsutani et al.)** — used for Single-NoC-PG and
  the round-robin Multi-NoC baseline: switch off after the idle-detect
  window regardless of congestion; wake only on look-ahead wakeups.

The controller also keeps the accounting the paper reports: compensated
sleep cycles (CSC = per-period sleep length minus T-breakeven, from Hu
et al.), state-residency cycles, and transition counts.

:meth:`PowerGatingController.step` is the ``gating`` phase of the
simulator's self-profile (``REPRO_PERF=1``, see ``docs/perf.md``) —
use it to see what this controller costs per simulated cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.monitor import CongestionMonitor
from repro.noc.config import NocConfig
from repro.noc.network import SubnetNetwork
from repro.noc.router import PowerState, Router
from repro.noc.topology import Port

if TYPE_CHECKING:
    from repro.noc.interface import NetworkInterface

__all__ = ["GatingPolicy", "GatingStats", "PowerGatingController"]


class GatingPolicy:
    """Names for the gating policy variants."""

    NONE = "none"
    BASELINE = "baseline"
    RCS = "rcs"

    @staticmethod
    def resolve(config: NocConfig) -> str:
        """Pick the gating policy implied by a fabric configuration.

        Catnap's RCS-conditioned gating only makes sense with the
        priority selection policy and more than one subnet; every other
        power-gated configuration uses the Matsutani-style baseline.
        """
        if not config.gating.enabled:
            return GatingPolicy.NONE
        if (
            config.selection_policy in ("catnap", "ir")
            and config.num_subnets > 1
        ):
            return GatingPolicy.RCS
        return GatingPolicy.BASELINE


@dataclass
class GatingStats:
    """Aggregated gating behaviour for one subnet."""

    active_cycles: int = 0
    sleep_cycles: int = 0
    wakeup_cycles: int = 0
    sleep_periods: int = 0
    compensated_sleep_cycles: int = 0
    short_sleep_periods: int = 0
    wake_requests: int = 0

    @property
    def total_cycles(self) -> int:
        """Router-cycles observed in any state."""
        return self.active_cycles + self.sleep_cycles + self.wakeup_cycles

    def csc_fraction(self) -> float:
        """Compensated sleep cycles as a fraction of router-cycles."""
        total = self.total_cycles
        return self.compensated_sleep_cycles / total if total else 0.0

    def merge(self, other: "GatingStats") -> "GatingStats":
        """Return the element-wise sum of two stats records."""
        return GatingStats(
            self.active_cycles + other.active_cycles,
            self.sleep_cycles + other.sleep_cycles,
            self.wakeup_cycles + other.wakeup_cycles,
            self.sleep_periods + other.sleep_periods,
            self.compensated_sleep_cycles + other.compensated_sleep_cycles,
            self.short_sleep_periods + other.short_sleep_periods,
            self.wake_requests + other.wake_requests,
        )


@dataclass
class _RouterGatingState:
    """Book-keeping attached to each router by the controller."""

    sleep_start: int = -1
    wake_ready: int = -1
    wake_requested: bool = False
    periods: list[int] = field(default_factory=list)


class PowerGatingController:
    """Drives power states of every router in a Multi-NoC fabric."""

    def __init__(
        self,
        config: NocConfig,
        subnets: list[SubnetNetwork],
        monitor: CongestionMonitor,
    ) -> None:
        self.config = config
        self.subnets = subnets
        self.monitor = monitor
        self.policy = GatingPolicy.resolve(config)
        gating = config.gating
        self.wakeup_cycles = gating.wakeup_cycles
        self.breakeven_cycles = gating.breakeven_cycles
        self.idle_detect_cycles = gating.idle_detect_cycles
        self.keep_subnet0 = (
            gating.keep_subnet0_active and self.policy == GatingPolicy.RCS
        )
        self.stats = [GatingStats() for _ in subnets]
        self._state = {
            id(router): _RouterGatingState()
            for network in subnets
            for router in network.routers
        }
        self._pending_wakes: set[int] = set()
        self._router_by_id = {
            id(router): router
            for network in subnets
            for router in network.routers
        }
        for network in subnets:
            network.wakeup_sink = self._on_wakeup_request
        # Wake-watchdog state (armed by the repro.faults recovery
        # layer via arm_wake_timeout; dormant and cost-free otherwise).
        self._wake_timeout: int | None = None
        self._wake_backoff = 2.0
        self._wake_timeout_max = 256
        self._wait_since: dict[int, int] = {}
        self._wait_timeout: dict[int, float] = {}
        #: Wakeups forced by the watchdog (resilience accounting).
        self.forced_wakes = 0

    # ------------------------------------------------------------------
    # Wakeup requests (look-ahead from routers, injection from NIs)
    # ------------------------------------------------------------------
    def _on_wakeup_request(self, router: Router, requester_node: int) -> None:
        self.request_wakeup(router)

    def request_wakeup(self, router: Router) -> None:
        """Ask for ``router`` to be powered up (idempotent per cycle)."""
        if self.policy == GatingPolicy.NONE:
            return
        if router.power_state == PowerState.SLEEP:
            self._pending_wakes.add(id(router))
            self.stats[router.subnet].wake_requests += 1

    # ------------------------------------------------------------------
    # Wake watchdog (the ``wakeup-timeout`` recovery of repro.faults)
    # ------------------------------------------------------------------
    def arm_wake_timeout(
        self,
        timeout: int,
        backoff: float = 2.0,
        max_timeout: int = 256,
    ) -> None:
        """Enable the wake watchdog: force-wake routers that keep
        traffic waiting for ``timeout`` cycles.

        A countermeasure against lost look-ahead wakeups: the normal
        request wire (:meth:`request_wakeup`) may be faulty, so the
        watchdog writes pending wakes directly, a redundant wake path.
        Each forced wake multiplies that router's next timeout by
        ``backoff`` (saturating at ``max_timeout``) so a router the
        fabric keeps re-gating is not thrashed awake every period.
        """
        if timeout < 1:
            raise ValueError("wake timeout must be >= 1")
        if backoff < 1.0:
            raise ValueError("wake backoff must be >= 1.0")
        self._wake_timeout = timeout
        self._wake_backoff = backoff
        self._wake_timeout_max = max(timeout, max_timeout)

    def disarm_wake_timeout(self) -> None:
        """Disable the wake watchdog again."""
        self._wake_timeout = None

    def wake_on_timeout(
        self, cycle: int, nis: "Iterable[NetworkInterface]" = ()
    ) -> int:
        """Run one watchdog pass; return the number of forced wakes.

        A sleeping router is *waited on* when an NI holds a streaming
        slot for it or an upstream head flit routes to it.  Once a
        router has been continuously waited on for its current timeout
        the watchdog adds it to the pending-wake set directly
        (bypassing the request wire) and backs its timeout off.
        """
        if self._wake_timeout is None or self.policy == GatingPolicy.NONE:
            return 0
        waiting: set[int] = set()
        for ni in nis:
            for subnet, network in enumerate(self.subnets):
                router = network.routers[ni.node]
                if router.power_state == PowerState.SLEEP and any(
                    slot is not None for slot in ni._slots[subnet]
                ):
                    waiting.add(id(router))
        for network in self.subnets:
            for router in network.routers:
                if (
                    router.power_state != PowerState.ACTIVE
                    or not router.buffered_flits
                ):
                    continue
                for port in router.ports:
                    for channel in port.vcs:
                        if not channel.fifo:
                            continue
                        out_port = channel.fifo[0].route
                        if out_port == Port.LOCAL:
                            continue
                        downstream = router.neighbor_router[out_port]
                        if (
                            downstream is not None
                            and downstream.power_state == PowerState.SLEEP
                        ):
                            waiting.add(id(downstream))
        since = self._wait_since
        timeouts = self._wait_timeout
        for key in [k for k in since if k not in waiting]:
            del since[key]
            timeouts.pop(key, None)
        forced = 0
        for key in sorted(waiting):
            started = since.setdefault(key, cycle)
            timeout = timeouts.get(key, float(self._wake_timeout))
            if cycle - started < timeout:
                continue
            self._pending_wakes.add(key)
            self.stats[self._router_by_id[key].subnet].wake_requests += 1
            self.forced_wakes += 1
            forced += 1
            since[key] = cycle
            timeouts[key] = min(
                timeout * self._wake_backoff,
                float(self._wake_timeout_max),
            )
        return forced

    # ------------------------------------------------------------------
    # Per-cycle evaluation
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance idle counters and run all power-state transitions."""
        if self.policy == GatingPolicy.NONE:
            for subnet_idx, network in enumerate(self.subnets):
                self.stats[subnet_idx].active_cycles += len(network.routers)
            return
        rcs_policy = self.policy == GatingPolicy.RCS
        monitor = self.monitor
        pending = self._pending_wakes
        for subnet_idx, network in enumerate(self.subnets):
            stats = self.stats[subnet_idx]
            gate_this_subnet = not (self.keep_subnet0 and subnet_idx == 0)
            lower = subnet_idx - 1
            for router in network.routers:
                state = router.power_state
                if state == PowerState.ACTIVE:
                    stats.active_cycles += 1
                    if not gate_this_subnet:
                        continue
                    if router.is_drained:
                        router.idle_cycles += 1
                    else:
                        router.idle_cycles = 0
                        continue
                    if router.idle_cycles < self.idle_detect_cycles:
                        continue
                    if rcs_policy and monitor.gating_status(
                        router.node, lower
                    ):
                        continue
                    self._sleep(router, cycle)
                elif state == PowerState.SLEEP:
                    stats.sleep_cycles += 1
                    wake = id(router) in pending
                    if not wake and rcs_policy and monitor.gating_status(
                        router.node, lower
                    ):
                        wake = True
                    if wake:
                        self._begin_wakeup(router, cycle, stats)
                else:  # WAKEUP
                    stats.wakeup_cycles += 1
                    if cycle >= self._state[id(router)].wake_ready:
                        self._wake_complete(router, cycle)
        pending.clear()

    # The three transition methods below are the telemetry probe
    # points: repro.telemetry shadows them with instance attributes to
    # observe every power transition with its exact cycle, so the
    # unhooked controller keeps the unconditional fast path (no
    # listener branches).
    def _sleep(self, router: Router, cycle: int) -> None:
        router.power_state = PowerState.SLEEP
        state = self._state[id(router)]
        state.sleep_start = cycle
        self.stats[router.subnet].sleep_periods += 1

    def _wake_complete(self, router: Router, cycle: int) -> None:
        router.power_state = PowerState.ACTIVE
        router.idle_cycles = 0

    def _begin_wakeup(
        self, router: Router, cycle: int, stats: GatingStats
    ) -> None:
        router.power_state = PowerState.WAKEUP
        state = self._state[id(router)]
        state.wake_ready = cycle + self.wakeup_cycles
        self._close_period(router, state, cycle, stats)

    def _close_period(
        self,
        router: Router,
        state: _RouterGatingState,
        cycle: int,
        stats: GatingStats,
    ) -> None:
        if state.sleep_start < 0:
            return
        length = cycle - state.sleep_start
        state.periods.append(length)
        if length >= self.breakeven_cycles:
            stats.compensated_sleep_cycles += length - self.breakeven_cycles
        else:
            stats.short_sleep_periods += 1
        state.sleep_start = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_of(self, router: Router) -> _RouterGatingState:
        """The controller's bookkeeping record for ``router``.

        Read-only view for diagnostics and the runtime invariant
        checker (:mod:`repro.analysis.invariants`), which cross-checks
        it against the router's actual power state every cycle.
        """
        return self._state[id(router)]

    # ------------------------------------------------------------------
    # Finalization and summaries
    # ------------------------------------------------------------------
    def finalize(self, cycle: int) -> None:
        """Close still-open sleep periods at the end of a simulation."""
        if self.policy == GatingPolicy.NONE:
            return
        for network in self.subnets:
            stats = self.stats[network.subnet]
            for router in network.routers:
                state = self._state[id(router)]
                if (
                    router.power_state == PowerState.SLEEP
                    and state.sleep_start >= 0
                ):
                    self._close_period(router, state, cycle, stats)

    def total_stats(self) -> GatingStats:
        """Stats summed over all subnets."""
        total = GatingStats()
        for stats in self.stats:
            total = total.merge(stats)
        return total

    def sleep_period_lengths(self) -> list[int]:
        """All closed sleep-period lengths (for distribution analysis)."""
        return [
            length
            for state in self._state.values()
            for length in state.periods
        ]
