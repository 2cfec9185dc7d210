"""Property-based invariants of the fabric (hypothesis).

These exercise randomized configurations and traffic against the
invariants the simulator must never violate: packet conservation,
credit conservation, buffer bounds, and gated-network equivalence of
delivered traffic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.config import (
    CongestionConfig,
    NocConfig,
    PowerGatingConfig,
)
from repro.noc.flit import MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.noc.topology import Port

configs = st.builds(
    NocConfig,
    mesh_cols=st.integers(2, 4),
    mesh_rows=st.integers(2, 4),
    num_subnets=st.integers(1, 3),
    link_width_bits=st.sampled_from([64, 128, 256]),
    vcs_per_port=st.sampled_from([2, 4]),
    flits_per_vc=st.sampled_from([2, 4]),
    voltage_v=st.just(0.625),
    selection_policy=st.sampled_from(["catnap", "round_robin", "random"]),
    gating=st.booleans().map(lambda on: PowerGatingConfig(enabled=on)),
    congestion=st.sampled_from(
        ["bfm", "bfa", "iqocc"]
    ).map(lambda m: CongestionConfig(metric=m)),
)


def traffic_for(config, data, max_packets=30):
    n = config.num_nodes
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([72, 256, 584]),
                st.sampled_from(MessageClass.ALL),
            ),
            max_size=max_packets,
        )
    )
    return [
        Packet(src=s, dst=d, size_bits=b, message_class=mc)
        for s, d, b, mc in pairs
        if s != d
    ]


class TestFabricInvariants:
    @settings(max_examples=25, deadline=None)
    @given(configs, st.data())
    def test_conservation_and_drain(self, config, data):
        """Every offered packet is delivered exactly once."""
        fabric = MultiNocFabric(config, seed=data.draw(st.integers(0, 99)))
        delivered = []
        fabric.packet_sink = lambda p, c: delivered.append(p.packet_id)
        packets = traffic_for(config, data)
        for packet in packets:
            fabric.offer(packet)
        assert fabric.drain(30_000)
        assert sorted(delivered) == sorted(p.packet_id for p in packets)

    @settings(max_examples=25, deadline=None)
    @given(configs, st.data())
    def test_credits_restored_after_drain(self, config, data):
        """Credit conservation: all credits return to initial values."""
        fabric = MultiNocFabric(config, seed=data.draw(st.integers(0, 99)))
        for packet in traffic_for(config, data):
            fabric.offer(packet)
        assert fabric.drain(30_000)
        full = config.flits_per_vc
        for network in fabric.subnets:
            for router in network.routers:
                for port in (
                    Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH,
                ):
                    if network.routers and router.neighbor_router[port]:
                        assert all(
                            channel.free == full
                            for channel in router.neighbor_router[
                                port
                            ].ports[Port.OPPOSITE[port]].vcs
                        )

    @settings(max_examples=15, deadline=None)
    @given(configs, st.data())
    def test_buffers_never_exceed_depth(self, config, data):
        """VC occupancy is bounded by flits_per_vc at every cycle."""
        fabric = MultiNocFabric(config, seed=data.draw(st.integers(0, 99)))
        packets = traffic_for(config, data)
        for packet in packets:
            fabric.offer(packet)
        for _ in range(200):
            fabric.step()
            for network in fabric.subnets:
                for router in network.routers:
                    for port in router.ports:
                        for vc in port.vcs:
                            assert vc.occupancy <= config.flits_per_vc

    @settings(max_examples=15, deadline=None)
    @given(configs, st.data())
    def test_latency_at_least_distance(self, config, data):
        """No packet arrives faster than its hop distance allows."""
        fabric = MultiNocFabric(config, seed=data.draw(st.integers(0, 99)))
        packets = traffic_for(config, data, max_packets=10)
        for packet in packets:
            fabric.offer(packet)
        assert fabric.drain(30_000)
        for packet in packets:
            hops = fabric.mesh.hop_distance(packet.src, packet.dst)
            assert packet.latency >= hops

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 99), st.data())
    def test_gating_never_loses_packets(self, seed, data):
        """Power gating must be functionally invisible."""
        config = NocConfig(
            mesh_cols=4,
            mesh_rows=4,
            num_subnets=2,
            link_width_bits=128,
            voltage_v=0.625,
            gating=PowerGatingConfig(enabled=True),
        )
        fabric = MultiNocFabric(config, seed=seed)
        packets = traffic_for(config, data, max_packets=40)
        # Let higher subnets fall asleep first.
        for _ in range(30):
            fabric.step()
        for packet in packets:
            fabric.offer(packet)
        assert fabric.drain(30_000)
        assert fabric.stats.packets_received == len(packets)
