"""Tests for the router microarchitecture via a minimal two-node net.

The pipeline runs through ``SubnetNetwork.step_routers``, the one
router step every kernel calls.
"""

from __future__ import annotations

from tests.conftest import drain_all, land_flit

from repro.analysis.invariants import InvariantChecker
from repro.noc.config import NocConfig
from repro.noc.flit import Flit, MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState
from repro.noc.topology import Port


def two_node_fabric(**overrides):
    """1x2 mesh, single subnet: router 0 -- router 1."""
    defaults = dict(
        mesh_cols=2,
        mesh_rows=1,
        num_subnets=1,
        link_width_bits=128,
        voltage_v=0.625,
    )
    defaults.update(overrides)
    return MultiNocFabric(NocConfig(**defaults), seed=1)


def make_flit(dst, route, size_bits=128, mc=MessageClass.SYNTHETIC):
    packet = Packet(src=0, dst=dst, size_bits=size_bits, message_class=mc)
    packet.num_flits = 1
    flit = Flit(packet, True, True, 0)
    flit.route = route
    return flit


class TestForwarding:
    def test_flit_crosses_link_in_hop_cycles(self, ):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0, r1 = network.routers
        flit = make_flit(dst=1, route=Port.EAST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        # Step until the flit lands at router 1's west input.
        for _ in range(fabric.config.timing.hop_cycles + 1):
            fabric.step()
        assert r0.buffered_flits == 0
        # Flit should have arrived and been ejected at node 1.
        assert network.counters.link_traversals == 1

    def test_credit_returns_to_upstream(self):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0, r1 = network.routers
        before = r1.ports[Port.WEST].vcs[0].free
        flit = make_flit(dst=1, route=Port.EAST, mc=MessageClass.REQUEST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        fabric.step()  # SA: flit leaves r0, credit consumed
        assert r1.ports[Port.WEST].vcs[0].free == before - 1
        for _ in range(10):
            fabric.step()
        # After r1 forwards/ejects the flit, the credit returns.
        assert r1.ports[Port.WEST].vcs[0].free == before

    def test_planted_flit_keeps_every_law(self):
        """A flit landed by ``land_flit`` spends the credit it uses:
        the invariant checker sees no forged credit, and every VC ends
        at its depth once the flit has drained."""
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0 = network.routers[0]
        flit = make_flit(dst=1, route=Port.EAST, mc=MessageClass.REQUEST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        checker = InvariantChecker(fabric).attach()
        drain_all(fabric)
        assert checker.counts["credit-conservation"] > 0
        assert r0.ports[Port.LOCAL].vcs[0].free == fabric.config.flits_per_vc
        depths = {
            channel.free for router in network.routers
            for channel in router.channels
        }
        assert depths == {fabric.config.flits_per_vc}

    def test_lookahead_route_computed_for_next_hop(self):
        fabric = MultiNocFabric(
            NocConfig(
                mesh_cols=3, mesh_rows=1, num_subnets=1,
                link_width_bits=128, voltage_v=0.625,
            ),
            seed=1,
        )
        network = fabric.subnets[0]
        r0 = network.routers[0]
        flit = make_flit(dst=2, route=Port.EAST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        fabric.step()
        # While in flight to router 1, the flit's route must already be
        # router 1's output port (EAST again).
        assert flit.route == Port.EAST
        for _ in range(8):
            fabric.step()
        assert flit.route == Port.LOCAL


class TestOutputConstraints:
    def test_one_flit_per_output_port_per_cycle(self):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0 = network.routers[0]
        for vc in (0, 1):
            flit = make_flit(dst=1, route=Port.EAST)
            land_flit(network, r0, Port.LOCAL, vc, flit)
        fabric.step()
        assert r0.buffered_flits == 1  # only one left per cycle
        fabric.step()
        assert r0.buffered_flits == 0

    def test_wormhole_holds_vc_until_tail(self):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0 = network.routers[0]
        packet = Packet(src=0, dst=1, size_bits=256)
        packet.num_flits = 2
        head = Flit(packet, True, False, 0)
        tail = Flit(packet, False, True, 1)
        for f in (head, tail):
            f.route = Port.EAST
            land_flit(network, r0, Port.LOCAL, 0, f)
        fabric.step()
        channel = r0.ports[Port.LOCAL].vcs[0]
        assert channel.has_allocation, "VC held between head and tail"
        r1 = network.routers[1]
        assert r1.ports[Port.WEST].vcs[channel.out_vc].owned
        fabric.step()
        assert not channel.has_allocation, "VC released after tail"


class TestPowerStateInteraction:
    def test_sleeping_downstream_triggers_wakeup_request(self):
        fabric = two_node_fabric(
            gating=__import__(
                "repro.noc.config", fromlist=["PowerGatingConfig"]
            ).PowerGatingConfig(enabled=True, keep_subnet0_active=False),
        )
        network = fabric.subnets[0]
        r0, r1 = network.routers
        r1.power_state = PowerState.SLEEP
        requests = []
        fabric.gating.request_wakeup = lambda router: requests.append(
            router.node
        )
        flit = make_flit(dst=1, route=Port.EAST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        network.step_routers(fabric.cycle)
        assert 1 in requests
        assert r0.buffered_flits == 1, "flit must wait for wakeup"


class TestBlockingCounters:
    def test_blocked_and_moved_accumulate(self):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0 = network.routers[0]
        r0.track_blocking = True
        for vc in (0, 1):
            flit = make_flit(dst=1, route=Port.EAST)
            land_flit(network, r0, Port.LOCAL, vc, flit)
        network.step_routers(0)
        assert r0.moved_accum == 1
        assert r0.blocked_accum == 1  # the loser waited this cycle


class TestDrainedProperty:
    def test_is_drained_accounts_for_in_flight(self):
        fabric = two_node_fabric()
        network = fabric.subnets[0]
        r0, r1 = network.routers
        assert r0.is_drained and r1.is_drained
        flit = make_flit(dst=1, route=Port.EAST)
        land_flit(network, r0, Port.LOCAL, 0, flit)
        fabric.step()  # flit now in flight toward r1
        assert r0.is_drained
        assert not r1.is_drained, "expected arrival must block sleep"
