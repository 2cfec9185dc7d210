"""Reference power-gating step: a walk over every router.

The simulator runs one gating step, the sleep-aware
:meth:`repro.core.gating.PowerGatingController.step`, which keeps each
subnet's routers split into awake and asleep lists and visits a sleeper
only when something may wake it.  This module keeps the straightforward
formulation it replaced as a test oracle: every router of every subnet,
in (subnet, node) order, runs the state machine of paper Figure 5.  The
two must leave a fabric in the same state and call the controller's
transition methods (``_sleep``, ``_begin_wakeup``, ``_wake_complete``)
in the same order.

Install it on a fabric with :func:`install_gating_oracle`; both kernels
call ``gating.step`` on the instance, so the shadow replaces the step
on ``dense`` and on ``skip``.
"""

from __future__ import annotations

from repro.core.gating import GatingPolicy
from repro.noc.router import PowerState

__all__ = ["oracle_gating_step", "install_gating_oracle"]


def oracle_gating_step(gating, cycle: int) -> None:
    """Advance idle counters and run all power-state transitions."""
    if gating.policy == GatingPolicy.NONE:
        for subnet_idx, network in enumerate(gating.subnets):
            gating.stats[subnet_idx].active_cycles += len(network.routers)
        return
    rcs_policy = gating.policy == GatingPolicy.RCS
    monitor = gating.monitor
    pending = gating._pending_wakes
    for subnet_idx, network in enumerate(gating.subnets):
        stats = gating.stats[subnet_idx]
        gate_this_subnet = not (gating.keep_subnet0 and subnet_idx == 0)
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
                if router.idle_cycles < gating.idle_detect_cycles:
                    continue
                if rcs_policy and monitor.gating_status(router.node, lower):
                    continue
                gating._sleep(router, cycle)
            elif state == PowerState.SLEEP:
                stats.sleep_cycles += 1
                wake = id(router) in pending
                if not wake and rcs_policy and monitor.gating_status(
                    router.node, lower
                ):
                    wake = True
                if wake:
                    gating._begin_wakeup(router, cycle, stats)
            else:  # WAKEUP
                stats.wakeup_cycles += 1
                if cycle >= gating.state_of(router).wake_ready:
                    gating._wake_complete(router, cycle)
    pending.clear()


def install_gating_oracle(fabric) -> None:
    """Shadow the fabric's ``gating.step`` with the oracle."""
    gating = fabric.gating
    gating.step = lambda cycle: oracle_gating_step(gating, cycle)
