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

The controller is the one definition of the state machine.  Both
simulation kernels run :meth:`PowerGatingController.step` (it costs
O(1) per sleeping router: the controller keeps each subnet's routers
split into awake and asleep lists), and the skip kernel's quiescence
jumps run :meth:`PowerGatingController.advance`, its closed form.
Only the transition methods ``_sleep``, ``_begin_wakeup`` and
``_wake_complete`` write a router's ``power_state``; they are the
probe points telemetry and the fault engine shadow.

:meth:`PowerGatingController.step` is the ``gating`` phase of the
simulator's self-profile (``REPRO_PERF=1``, see ``docs/perf.md``) —
use it to see what this controller costs per simulated cycle.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.monitor import CongestionMonitor
from repro.noc.config import NocConfig
from repro.noc.network import SubnetNetwork
from repro.noc.router import PowerState, Router
from repro.noc.topology import Port

if TYPE_CHECKING:
    from repro.noc.interface import NetworkInterface

__all__ = ["GatingPolicy", "GatingStats", "PowerGatingController"]

#: Sort key for merging routers of one subnet in node order.
_node_of = attrgetter("node")


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
            network.gating = self
        # Wake-watchdog state (armed by the repro.faults recovery
        # layer via arm_wake_timeout; dormant and cost-free otherwise).
        self._wake_timeout: int | None = None
        self._wake_backoff = 2.0
        self._wake_timeout_max = 256
        self._wait_since: dict[int, int] = {}
        self._wait_timeout: dict[int, float] = {}
        #: Wakeups forced by the watchdog (resilience accounting).
        self.forced_wakes = 0
        # _awake[subnet] / _asleep[subnet]: that subnet's routers split
        # by "power_state is SLEEP", each in node order; _plain0: subnet
        # 0 is un-gated and all its routers are ACTIVE.  Kept by the
        # transition methods.
        sleep = PowerState.SLEEP
        self._awake: list[list[Router]] = [
            [r for r in network.routers if r.power_state != sleep]
            for network in subnets
        ]
        self._asleep: list[list[Router]] = [
            [r for r in network.routers if r.power_state == sleep]
            for network in subnets
        ]
        self._plain0 = False
        if subnets:
            self._check_plain0()

    # ------------------------------------------------------------------
    # Wakeup requests (look-ahead from routers, injection from NIs)
    # ------------------------------------------------------------------
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
                    or not router.held
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
        """Advance idle counters and run all power-state transitions.

        The result is that of walking every router in (subnet, node)
        order, at O(1) per sleeping router: sleepers are credited their
        sleep cycle in one add per subnet, and a sleeper is visited
        only when it has a pending wake or its status bit in subnet
        h−1 is high — merged into the walk over the awake routers in
        node order, so the transition methods run in the full walk's
        order.  Each router's transition depends only on its own
        state, the pending-wake set and the status row, none of which
        the step itself changes.  The un-gated subnet 0 is one add
        while all its routers are ACTIVE.
        """
        if self.policy == GatingPolicy.NONE:
            for subnet_idx, network in enumerate(self.subnets):
                self.stats[subnet_idx].active_cycles += len(network.routers)
            return
        rows, index = self.monitor.gating_view()
        rcs_policy = self.policy == GatingPolicy.RCS
        detect = self.idle_detect_cycles
        states = self._state
        pending = self._pending_wakes
        sleep = PowerState.SLEEP
        active_state = PowerState.ACTIVE
        woken: list[Router] = []
        if pending:
            router_by_id = self._router_by_id
            woken = [router_by_id[key] for key in pending]
        for subnet_idx, stats in enumerate(self.stats):
            awake = self._awake[subnet_idx]
            if subnet_idx == 0 and self._plain0:
                stats.active_cycles += len(awake)
                continue
            asleep = self._asleep[subnet_idx]
            row = rows[subnet_idx - 1] if rcs_policy else None
            # A copy: the transitions below move routers between the
            # two lists in place.
            visit = awake[:]
            if asleep:
                stats.sleep_cycles += len(asleep)
                wake = [
                    r
                    for r in woken
                    if r.subnet == subnet_idx and r.power_state == sleep
                ]
                if row is not None and True in row:
                    wake.extend(
                        r
                        for r in asleep
                        if row[index[r.node]] and id(r) not in pending
                    )
                if wake:
                    visit = sorted(awake + wake, key=_node_of)
            gate = not (self.keep_subnet0 and subnet_idx == 0)
            active = 0
            waking = 0
            for router in visit:
                state = router.power_state
                if state == active_state:
                    active += 1
                    if not gate:
                        continue
                    if router.held:
                        router.idle_cycles = 0
                        continue
                    idle = router.idle_cycles + 1
                    router.idle_cycles = idle
                    if idle < detect:
                        continue
                    if row is not None and row[index[router.node]]:
                        continue
                    self._sleep(router, cycle)
                elif state == sleep:
                    self._begin_wakeup(router, cycle, stats)
                else:  # WAKEUP
                    waking += 1
                    if cycle >= states[id(router)].wake_ready:
                        self._wake_complete(router, cycle)
            stats.active_cycles += active
            stats.wakeup_cycles += waking
        pending.clear()

    def advance(self, start: int, end: int) -> None:
        """Run :meth:`step` over quiescent cycles ``[start, end)`` in
        closed form.

        Quiescent means no flit anywhere, no wakeup request and every
        status bit low, so each router's state machine runs on its own:
        a waking router completes at ``wake_ready``, a drained ACTIVE
        router of a gated subnet sleeps once its idle window fills
        (counted active through the transition cycle), and sleepers
        stay asleep.  The transitions are then made in cycle order,
        (subnet, node) order within a cycle — the order ``step`` would
        have made them in.
        """
        span = end - start
        if self.policy == GatingPolicy.NONE:
            for stats, network in zip(self.stats, self.subnets):
                stats.active_cycles += span * len(network.routers)
            return
        detect = self.idle_detect_cycles
        # (cycle, subnet, node, transition, router); the first three
        # fields are unique per event, so routers are never compared.
        events: list[
            tuple[int, int, int, Callable[[Router, int], None], Router]
        ] = []
        idle_after: list[tuple[Router, int]] = []
        for subnet_idx, network in enumerate(self.subnets):
            stats = self.stats[subnet_idx]
            gate = not (self.keep_subnet0 and subnet_idx == 0)
            for router in network.routers:
                t = start
                state = router.power_state
                idle = router.idle_cycles
                if state == PowerState.WAKEUP:
                    ready = self._state[id(router)].wake_ready
                    done_at = ready if ready > t else t
                    if done_at >= end:
                        stats.wakeup_cycles += end - t
                        continue
                    stats.wakeup_cycles += done_at - t + 1
                    events.append((done_at, subnet_idx, router.node,
                                   self._wake_complete, router))
                    t = done_at + 1
                    state = PowerState.ACTIVE
                    idle = 0
                if state == PowerState.SLEEP:
                    stats.sleep_cycles += end - t
                elif not gate:
                    # The always-on subnet never gates and leaves the
                    # idle counter untouched.
                    stats.active_cycles += end - t
                else:
                    sleep_at = t + max(0, detect - idle - 1)
                    if sleep_at >= end:
                        stats.active_cycles += end - t
                        idle += end - t
                    else:
                        stats.active_cycles += sleep_at - t + 1
                        idle += sleep_at - t + 1
                        stats.sleep_cycles += end - sleep_at - 1
                        events.append((sleep_at, subnet_idx, router.node,
                                       self._sleep, router))
                    idle_after.append((router, idle))
        events.sort(key=lambda event: event[:3])
        for cycle, _subnet, _node, transition, router in events:
            transition(router, cycle)
        for router, idle in idle_after:
            router.idle_cycles = idle

    def quiescent(self) -> bool:
        """True when no wakeup is pending and the wake watchdog is
        disarmed, so :meth:`advance` may stand in for :meth:`step`."""
        return not self._pending_wakes and self._wake_timeout is None

    # The three transition methods below are the only writers of
    # ``power_state``, and each moves its router across its subnet's
    # awake/asleep split as the state crosses SLEEP, so the split is
    # exact even when a caller outside step runs them or a shadow
    # declines one.  They are also the probe points of repro.telemetry
    # and repro.faults, which shadow them with instance attributes to
    # observe (or veto) every power transition with its exact cycle;
    # the unhooked controller keeps the unconditional fast path (no
    # listener branches).
    def _sleep(self, router: Router, cycle: int) -> None:
        was = router.power_state
        router.power_state = PowerState.SLEEP
        state = self._state[id(router)]
        state.sleep_start = cycle
        self.stats[router.subnet].sleep_periods += 1
        self._update_split(router, was)

    def _wake_complete(self, router: Router, cycle: int) -> None:
        was = router.power_state
        router.power_state = PowerState.ACTIVE
        router.idle_cycles = 0
        self._update_split(router, was)

    def _begin_wakeup(
        self, router: Router, cycle: int, stats: GatingStats
    ) -> None:
        was = router.power_state
        router.power_state = PowerState.WAKEUP
        state = self._state[id(router)]
        state.wake_ready = cycle + self.wakeup_cycles
        self._close_period(router, state, cycle, stats)
        self._update_split(router, was)

    def _update_split(self, router: Router, was: int) -> None:
        """Keep the split after ``router`` left state ``was``: a router
        whose state crossed SLEEP moves to the other list at its node
        position (O(log n) search plus one list shift)."""
        sleep = PowerState.SLEEP
        subnet_idx = router.subnet
        if (was == sleep) != (router.power_state == sleep):
            if was == sleep:
                source = self._asleep[subnet_idx]
                target = self._awake[subnet_idx]
            else:
                source = self._awake[subnet_idx]
                target = self._asleep[subnet_idx]
            index = bisect_left(source, router.node, key=_node_of)
            if index == len(source) or source[index] is not router:
                raise RuntimeError(
                    f"subnet {subnet_idx} node {router.node} is missing "
                    "from the gating split (power_state written outside "
                    "the transition methods)"
                )
            del source[index]
            insort(target, router, key=_node_of)
        if subnet_idx == 0:
            self._check_plain0()

    def _check_plain0(self) -> None:
        """Re-derive whether subnet 0 is un-gated and all ACTIVE."""
        self._plain0 = self.keep_subnet0 and all(
            r.power_state == PowerState.ACTIVE
            for r in self.subnets[0].routers
        )

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

    def asleep(self, subnet_idx: int) -> list[Router]:
        """The routers :meth:`step` credits as asleep in one subnet.

        Read-only view for the invariant checker, which requires it to
        hold exactly the subnet's routers whose state is SLEEP.
        """
        return self._asleep[subnet_idx]

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
