"""Tests for VC buffers and message-class VC assignment."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import land_flit

from repro.noc.buffers import vc_candidates
from repro.noc.config import NocConfig
from repro.noc.flit import Flit, MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.noc.topology import Port


def flit():
    return Flit(Packet(src=0, dst=1, size_bits=72), True, True, 0)


def east_port(vcs, depth):
    """Router 0's east input port (``vcs`` VCs of ``depth`` flits) in a
    1x2 single-subnet fabric, and a function landing a flit in it."""
    fabric = MultiNocFabric(
        NocConfig(mesh_cols=2, mesh_rows=1, num_subnets=1,
                  vcs_per_port=vcs, flits_per_vc=depth),
        seed=1,
    )
    network = fabric.subnets[0]
    router = network.routers[0]

    def land(vc, f):
        land_flit(network, router, Port.EAST, vc, f)

    return router.ports[Port.EAST], land


class TestVirtualChannel:
    def test_allocation_lifecycle(self):
        port, _land = east_port(4, 4)
        vc = port.vcs[2]
        assert not vc.has_allocation
        vc.out_port = 1
        vc.out_vc = 2
        assert vc.has_allocation
        vc.release_allocation()
        assert not vc.has_allocation
        assert vc.out_port == -1 and vc.out_vc == -1

    def test_channel_locates_itself(self):
        fabric = MultiNocFabric(NocConfig(mesh_cols=2, mesh_rows=1), seed=1)
        router = fabric.subnets[0].routers[1]
        vcs = router.vcs_per_port
        for in_port, port in enumerate(router.ports):
            for vc, channel in enumerate(port.vcs):
                assert channel.router is router
                assert channel.port is port
                assert channel.bit == 1 << (in_port * vcs + vc)
                assert channel.position == (in_port, vc)
                assert router.channels[in_port * vcs + vc] is channel


class TestCreditHomes:
    def test_every_vc_returns_credits_to_its_sender(self):
        """An input VC's credits are the ones its sender spends on the
        link: the upstream router's ``links[out_port]`` VCs behind a
        mesh link, the NI's per-subnet lane VCs behind LOCAL."""
        fabric = MultiNocFabric(
            NocConfig(mesh_cols=3, mesh_rows=2, num_subnets=2,
                      link_width_bits=128),
            seed=1,
        )
        wired = 0
        for network in fabric.subnets:
            for router in network.routers:
                for out_port in range(1, Port.COUNT):
                    downstream = router.neighbor_router[out_port]
                    if downstream is None:
                        continue
                    in_port = Port.OPPOSITE[out_port]
                    for vc, channel in enumerate(
                        downstream.ports[in_port].vcs
                    ):
                        assert router.links[out_port][1][vc] is channel
                        assert channel.free == fabric.config.flits_per_vc
                        wired += 1
            for ni in fabric.nis:
                local = network.routers[ni.node].ports[Port.LOCAL]
                for vc, channel in enumerate(local.vcs):
                    assert ni._lanes[network.subnet][3][vc] is channel
                    assert channel.free == fabric.config.flits_per_vc
        # 7 mesh links, both directions, 4 VCs, 2 subnets.
        assert wired == 7 * 2 * 4 * 2


class TestInputPort:
    def test_push_pop_fifo_order(self):
        port, land = east_port(2, 4)
        flits = [flit() for _ in range(3)]
        for f in flits:
            land(0, f)
        assert port.occupancy == 3
        assert [port.pop(0) for _ in range(3)] == flits
        assert port.occupancy == 0

    def test_overflow_raises(self):
        _port, land = east_port(1, 2)
        land(0, flit())
        land(0, flit())
        with pytest.raises(OverflowError):
            land(0, flit())

    def test_occupancy_across_vcs(self):
        port, land = east_port(4, 4)
        land(0, flit())
        land(3, flit())
        assert port.occupancy == 2
        assert not port.is_empty
        port.pop(0)
        port.pop(3)
        assert port.is_empty


class TestFootprint:
    def test_four_subnet_fabric_heap(self):
        """Buffered capacity is constant across subnet counts, so VC
        storage must not cost more than the flits it can hold: the
        4NT-128b-PG fabric's 5,120 input VCs are empty lists, and the
        whole fabric builds in under 2.5 MiB of Python heap (about
        1.7 MiB; one ``deque`` per VC made it 5.1 MiB)."""
        config = NocConfig.multi_noc(4, power_gating=True)
        MultiNocFabric(config)  # warm-up: module-level memos and caches
        tracemalloc.start()
        try:
            fabric = MultiNocFabric(config)
            heap, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert heap < 2.5 * 2**20
        assert fabric.subnets[0].routers[0].channels[0].fifo == []


class TestVcCandidates:
    def test_synthetic_gets_all(self):
        assert vc_candidates(MessageClass.SYNTHETIC, 4) == (0, 1, 2, 3)
        assert vc_candidates(MessageClass.SYNTHETIC, 2) == (0, 1)

    def test_protocol_classes_disjoint_on_4vc(self):
        sets = [
            set(vc_candidates(mc, 4))
            for mc in (
                MessageClass.REQUEST,
                MessageClass.FORWARD,
                MessageClass.RESPONSE,
            )
        ]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not sets[i] & sets[j]

    def test_response_gets_two_vcs(self):
        assert vc_candidates(MessageClass.RESPONSE, 4) == (2, 3)

    @given(
        st.sampled_from(MessageClass.ALL),
        st.integers(1, 8),
    )
    def test_candidates_always_valid(self, mc, vcs):
        for vc in vc_candidates(mc, vcs):
            assert 0 <= vc < vcs
