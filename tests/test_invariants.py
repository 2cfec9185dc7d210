"""Runtime invariant checker: attachment, green runs, seeded mutations.

The mutation tests are the contract of ``repro.analysis.invariants``:
each deliberately corrupts one piece of distributed simulator state (a
dropped credit, a duplicated flit, a skipped wakeup, a skipped priority
subnet) and asserts the checker reports the precise invariant with a
diagnostic naming the location.
"""

from __future__ import annotations

import pytest

from tests.conftest import gated_config, land_flit, small_fabric

from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    _CheckedPolicy,
    _find_cycle,
)
from repro.core.policies import CatnapPolicy
from repro.noc.flit import Flit, Packet
from repro.noc.layers import BY_NAME, RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState
from repro.noc.topology import Port


def checked_fabric(backend=None, **overrides):
    fabric = small_fabric(backend=backend, **overrides)
    return fabric, InvariantChecker(fabric).attach()


def offer_traffic(fabric: MultiNocFabric, packets: int = 20) -> None:
    for i in range(packets):
        src, dst = i % 16, (i * 7 + 3) % 16
        if src != dst:
            fabric.offer(Packet(src=src, dst=dst, size_bits=512))


# ----------------------------------------------------------------------
# Attachment and overhead
# ----------------------------------------------------------------------


class TestAttachment:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert RunOptions.from_env().spec(BY_NAME["checker"]) is None
        fabric = small_fabric()
        assert fabric.invariant_checker is None
        # Zero overhead off: the class method is not shadowed.
        assert "step" not in vars(fabric)
        assert all(
            isinstance(ni.policy, CatnapPolicy) for ni in fabric.nis
        )

    def test_zero_value_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert RunOptions.from_env().spec(BY_NAME["checker"]) is None
        assert small_fabric().invariant_checker is None

    def test_env_var_attaches_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        fabric = small_fabric()
        assert isinstance(fabric.invariant_checker, InvariantChecker)
        assert "step" in vars(fabric)
        assert all(
            isinstance(ni.policy, _CheckedPolicy) for ni in fabric.nis
        )

    def test_detach_restores_fast_path(self):
        fabric, checker = checked_fabric()
        checker.detach()
        assert "step" not in vars(fabric)
        assert all(
            isinstance(ni.policy, CatnapPolicy) for ni in fabric.nis
        )

    def test_double_attach_rejected(self):
        fabric, checker = checked_fabric()
        with pytest.raises(RuntimeError, match="already attached"):
            checker.attach()

    def test_parameter_validation(self):
        fabric = small_fabric()
        with pytest.raises(ValueError):
            InvariantChecker(fabric, interval=0)
        with pytest.raises(ValueError):
            InvariantChecker(fabric, stall_cycles=0)

    def test_interval_samples_cycles(self):
        fabric = small_fabric()
        checker = InvariantChecker(fabric, interval=5).attach()
        fabric.run(20)
        assert checker.counts["deadlock"] == 4

    def test_checked_policy_delegates_attributes(self):
        fabric, _checker = checked_fabric()
        policy = fabric.nis[0].policy
        assert isinstance(policy, _CheckedPolicy)
        assert policy.num_subnets == fabric.config.num_subnets

    def test_violation_message_format(self):
        err = InvariantViolation("credit-conservation", 42, "boom")
        assert str(err) == "[credit-conservation] cycle 42: boom"
        assert err.invariant == "credit-conservation"
        assert err.cycle == 42
        assert err.details == "boom"


# ----------------------------------------------------------------------
# Green runs: a correct simulator passes every law
# ----------------------------------------------------------------------


class TestGreenRuns:
    def test_checked_traffic_run_stays_green(self):
        fabric, checker = checked_fabric()
        offer_traffic(fabric)
        assert fabric.drain()
        for name in (
            "gated-arrival",
            "flit-conservation",
            "credit-conservation",
            "router-accounting",
            "gating-state",
            "priority-selection",
            "deadlock",
        ):
            assert checker.counts[name] > 0, name

    def test_checked_gated_run_stays_green(self):
        fabric = MultiNocFabric(gated_config(), seed=9)
        checker = InvariantChecker(fabric).attach()
        offer_traffic(fabric)
        assert fabric.drain()
        fabric.run(400)  # idle: higher-order routers actually gate
        assert any(
            router.power_state == PowerState.SLEEP
            for router in fabric.subnets[1].routers
        )
        assert checker.counts["gating-state"] >= 400

    def test_watchdog_quiet_on_live_and_idle_fabric(self):
        fabric = small_fabric()
        InvariantChecker(fabric, stall_cycles=16).attach()
        offer_traffic(fabric, packets=10)
        assert fabric.drain()
        fabric.run(100)  # idle, in-flight == 0: the watchdog resets


# ----------------------------------------------------------------------
# Seeded mutations (the contract: each is caught, precisely)
# ----------------------------------------------------------------------


# Each mutation is parametrized over both simulation kernels: time is
# advanced through ``fabric.run`` (the backend entry point), so the
# skip kernel's checker composition must catch exactly what the dense
# per-cycle path catches.
@pytest.mark.parametrize("backend", ["dense", "skip"])
class TestMutations:
    def test_dropped_credit_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        router = fabric.subnets[0].routers[5]  # interior node
        # A port wired to a real downstream router: edge ports have no
        # credit loop and are (correctly) outside the conservation law.
        port = next(
            p
            for p in range(1, Port.COUNT)
            if router.neighbor_router[p] is not None
        )
        router.neighbor_router[port].ports[Port.OPPOSITE[port]].vcs[
            0
        ].free -= 1
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "credit-conservation"
        assert "credit was lost, forged, or returned twice" in (
            err.value.details
        )
        assert f"port {Port.NAMES[port]}" in err.value.details
        assert f"{router.node}->" in err.value.details

    def test_forged_credit_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        router = fabric.subnets[0].routers[5]
        port = next(
            p
            for p in range(1, Port.COUNT)
            if router.neighbor_router[p] is not None
        )
        router.neighbor_router[port].ports[Port.OPPOSITE[port]].vcs[
            0
        ].free += 1
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "credit-conservation"

    def test_dropped_injection_credit_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        fabric.subnets[0].routers[3].ports[Port.LOCAL].vcs[0].free -= 1
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "credit-conservation"
        assert "NI->router at node 3" in err.value.details

    def test_duplicated_flit_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        fabric.offer(Packet(src=0, dst=3, size_bits=128))
        network = fabric.subnets[0]
        for _ in range(50):
            if any(network._ring):
                break
            fabric.run(1)
        slot = next(s for s in network._ring if s)
        slot.append(slot[0])  # the same flit now traverses twice
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "flit-conservation"
        assert "lost or duplicated" in err.value.details
        assert "subnet 0" in err.value.details

    def test_dropped_held_on_send_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        fabric.offer(Packet(src=0, dst=3, size_bits=512))
        network = fabric.subnets[0]
        channel = None
        for _ in range(50):
            channel = next(
                (
                    ch
                    for slot in network._ring
                    for ch, _flit in slot
                    if ch.port is not ch.router.ports[Port.LOCAL]
                ),
                None,
            )
            if channel is not None:
                break
            fabric.run(1)
        assert channel is not None, "no flit ever crossed a link"
        # A send that put the flit on the link without counting it
        # toward its next hop.
        router = channel.router
        router.held -= 1
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "router-accounting"
        assert "held = " in err.value.details
        assert f"node {router.node}" in err.value.details

    def test_wake_skipped_router_with_buffered_flits_is_caught(
        self, backend
    ):
        fabric = MultiNocFabric(gated_config(), seed=9, backend=backend)
        checker = InvariantChecker(fabric).attach()
        offer_traffic(fabric, packets=8)
        router = None
        for _ in range(200):
            fabric.run(1)
            router = next(
                (
                    r
                    for r in fabric.subnets[0].routers
                    if r.buffered_flits
                ),
                None,
            )
            if router is not None:
                break
        assert router is not None, "traffic never buffered a flit"
        router.power_state = PowerState.SLEEP  # skip the drain protocol
        with pytest.raises(InvariantViolation) as err:
            checker.check_now(fabric.cycle)
        assert err.value.invariant == "gated-arrival"
        assert "a gated router must be drained" in err.value.details
        assert f"node {router.node}" in err.value.details

    def test_flit_in_flight_toward_gated_router_is_caught(self, backend):
        fabric = MultiNocFabric(gated_config(), seed=9, backend=backend)
        checker = InvariantChecker(fabric).attach()
        network = fabric.subnets[1]
        router = network.routers[1]
        flit = Flit(
            packet=Packet(src=0, dst=5, size_bits=128),
            is_head=True,
            is_tail=True,
            index=0,
            route=Port.EAST,
        )
        network._ring[0].append((router.ports[Port.WEST].vcs[0], flit))
        router.power_state = PowerState.SLEEP
        with pytest.raises(InvariantViolation) as err:
            checker.check_now(fabric.cycle)
        assert err.value.invariant == "gated-arrival"
        assert "in flight toward" in err.value.details

    def test_priority_skip_is_caught(self, backend):
        class _SkippingPolicy:
            """Strict-priority claimant that actually skips subnet 0."""

            strict_priority = True

            def __init__(self, monitor):
                self.monitor = monitor

            def select(self, node, cycle, packet=None):
                return 1

        fabric, checker = checked_fabric(backend=backend)
        fabric.nis[0].policy = _CheckedPolicy(
            _SkippingPolicy(fabric.monitor), checker
        )
        fabric.offer(Packet(src=0, dst=5, size_bits=128))
        with pytest.raises(InvariantViolation) as err:
            for _ in range(20):
                fabric.run(1)
        assert err.value.invariant == "priority-selection"
        assert "subnet 1" in err.value.details
        assert "[0]" in err.value.details  # names the skipped subnet

    def test_lost_flit_accounting_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        network = fabric.subnets[0]
        network.counters.flits_injected += 1  # phantom injection
        network.flits_in_network += 1
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "flit-conservation"

    def test_stale_mask_bit_is_caught(self, backend):
        fabric, _checker = checked_fabric(backend=backend)
        router = fabric.subnets[0].routers[5]
        router.mask |= 1 << 3  # an occupancy bit for an empty VC
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "router-accounting"
        assert "occupancy mask" in err.value.details
        assert "node 5" in err.value.details

    def test_stale_sleep_split_is_caught(self, backend):
        fabric = MultiNocFabric(gated_config(), seed=9, backend=backend)
        InvariantChecker(fabric).attach()
        gating = fabric.gating
        routers = fabric.subnets[1].routers
        for _ in range(200):
            if len(gating.asleep(1)) == len(routers):
                break
            fabric.run(1)
        asleep = gating.asleep(1)
        assert len(asleep) == len(routers), "subnet 1 never fell asleep"
        # The split stops crediting one sleeper; nothing else changes.
        del asleep[3]
        with pytest.raises(InvariantViolation) as err:
            fabric.run(1)
        assert err.value.invariant == "gating-state"
        assert "stale awake/asleep split" in err.value.details
        assert "subnet 1" in err.value.details


# ----------------------------------------------------------------------
# Deadlock watchdog and dependency witness
# ----------------------------------------------------------------------


def plant_circular_wait(fabric: MultiNocFabric) -> None:
    """Two head flits waiting on each other across the 0<->1 link."""
    network = fabric.subnets[0]
    r0, r1 = network.routers[0], network.routers[1]
    land_flit(
        network,
        r0,
        Port.EAST,
        0,
        Flit(
            packet=Packet(src=1, dst=2, size_bits=128),
            is_head=True,
            is_tail=True,
            index=0,
            route=Port.EAST,
        ),
    )
    land_flit(
        network,
        r1,
        Port.WEST,
        0,
        Flit(
            packet=Packet(src=0, dst=0, size_bits=128),
            is_head=True,
            is_tail=True,
            index=0,
            route=Port.WEST,
        ),
    )
    for vc in range(fabric.config.vcs_per_port):
        r1.ports[Port.WEST].vcs[vc].free = 0
        r0.ports[Port.EAST].vcs[vc].free = 0


class TestDeadlock:
    def test_find_cycle_detects_loop(self):
        a, b, c = (0, 0, 1, 0), (0, 1, 2, 0), (0, 2, 1, 0)
        cycle = _find_cycle({a: [b], b: [c], c: [a]})
        assert cycle is not None
        assert set(cycle) == {a, b, c}

    def test_find_cycle_none_on_dag(self):
        a, b, c = (0, 0, 1, 0), (0, 1, 2, 0), (0, 2, 1, 0)
        assert _find_cycle({a: [b], b: [c], c: []}) is None

    def test_find_cycle_ignores_dangling_edges(self):
        a = (0, 0, 1, 0)
        assert _find_cycle({a: [(9, 9, 9, 9)]}) is None

    def test_witness_reports_circular_wait(self):
        fabric, checker = checked_fabric()
        plant_circular_wait(fabric)
        witness = checker._dependency_witness()
        assert "channel-dependency cycle (circular wait)" in witness
        assert "node 0 in-port east vc 0" in witness
        assert "node 1 in-port west vc 0" in witness

    def test_witness_without_cycle_lists_blocked_heads(self):
        fabric, checker = checked_fabric()
        network = fabric.subnets[0]
        r0 = network.routers[0]
        land_flit(
            network,
            r0,
            Port.LOCAL,
            0,
            Flit(
                packet=Packet(src=0, dst=1, size_bits=128),
                is_head=True,
                is_tail=True,
                index=0,
                route=Port.EAST,
            ),
        )
        for vc in range(fabric.config.vcs_per_port):
            network.routers[1].ports[Port.WEST].vcs[vc].free = 0
        witness = checker._dependency_witness()
        assert "no dependency cycle found" in witness
        assert "node 0 in-port local vc 0" in witness

    def test_stall_watchdog_raises_with_witness(self):
        fabric = small_fabric()
        checker = InvariantChecker(fabric, stall_cycles=3).attach()
        plant_circular_wait(fabric)
        # The planted wait zeroes credits by hand, which the credit law
        # would flag, so drive the watchdog directly: zero progress,
        # two flits in the network.
        assert fabric.subnets[0].flits_in_network == 2
        with pytest.raises(InvariantViolation) as err:
            for _ in range(10):
                checker._check_stall(fabric.cycle)
        assert err.value.invariant == "deadlock"
        assert "no buffer event for" in err.value.details
        assert "channel-dependency cycle" in err.value.details
