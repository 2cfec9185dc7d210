"""Tests for the shared network interface."""

from __future__ import annotations

import pytest

from tests.conftest import CongestionConfig, small_fabric

from repro.noc.config import NocConfig
from repro.noc.flit import MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric


def offer(fabric, src=0, dst=3, bits=512, mc=MessageClass.SYNTHETIC):
    packet = Packet(src=src, dst=dst, size_bits=bits, message_class=mc)
    fabric.offer(packet)
    return packet


class TestPacketization:
    def test_flit_count_from_width(self, fabric):
        packet = offer(fabric, bits=512)  # 128-bit subnets
        assert packet.num_flits == 4

    def test_control_packet_single_flit(self, fabric):
        packet = offer(fabric, bits=72)
        assert packet.num_flits == 1

    def test_queue_occupancy_tracks_flits(self, fabric):
        ni = fabric.nis[0]
        offer(fabric, bits=512)
        offer(fabric, bits=72)
        assert ni.queue_occupancy_flits() == 5
        assert fabric.drain()
        assert ni.queue_occupancy_flits() == 0


class TestStreaming:
    def test_one_flit_per_subnet_per_cycle(self, fabric):
        offer(fabric, bits=512)
        injected_before = fabric.subnets[0].counters.flits_injected
        fabric.step()
        fabric.step()
        total = sum(n.counters.flits_injected for n in fabric.subnets)
        assert total - injected_before <= 2  # <= 1 per cycle

    def test_back_to_back_packets_no_bubble(self):
        """Consecutive single-flit packets inject on consecutive cycles."""
        fabric = small_fabric(num_subnets=1, link_width_bits=256)
        for _ in range(4):
            offer(fabric, bits=72, mc=MessageClass.REQUEST)
        cycles = 0
        while fabric.subnets[0].counters.flits_injected < 4:
            fabric.step()
            cycles += 1
            assert cycles < 20
        assert cycles <= 5  # 4 flits + at most 1 startup cycle

    def test_different_classes_interleave_on_vcs(self):
        """A control packet need not wait behind a long data packet."""
        fabric = small_fabric(num_subnets=1, link_width_bits=128)
        data = offer(fabric, bits=4096, mc=MessageClass.RESPONSE)  # 32 flit
        ctrl = offer(fabric, bits=72, mc=MessageClass.REQUEST)
        assert fabric.drain()
        assert ctrl.received_cycle < data.received_cycle

    def test_all_flits_same_subnet(self, fabric):
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert packet.subnet in (0, 1)


@pytest.fixture
def ir_fabric():
    """Small fabric under the IR metric, the one that reads NI rates."""
    return small_fabric(congestion=CongestionConfig(metric="ir"))


class TestInjectionRate:
    def test_rate_rises_with_injection(self, ir_fabric):
        fabric = ir_fabric
        ni = fabric.nis[0]
        assert ni.injection_rate() == 0.0
        for _ in range(30):
            offer(fabric, bits=72)
            fabric.step()
        assert ni.injection_rate() > 0.05

    def test_rate_decays_when_idle(self, ir_fabric):
        fabric = ir_fabric
        for _ in range(30):
            offer(fabric, bits=72)
            fabric.step()
        peak = fabric.nis[0].injection_rate()
        assert fabric.drain()
        for _ in range(300):
            fabric.step()
        assert fabric.nis[0].injection_rate() < peak / 4

    def test_rates_untracked_under_bfm(self, fabric):
        # Only the IR metric reads the averages, so under BFM no NI
        # maintains them and they stay at zero through traffic.
        for _ in range(30):
            offer(fabric, bits=72)
            fabric.step()
        assert fabric.drain()
        for ni in fabric.nis:
            assert not ni.track_rate
            assert ni.injection_rate() == 0.0
            assert ni._ir_rate_subnet == [0.0] * fabric.config.num_subnets
        assert fabric.subnets[0].counters.packets_injected > 0


class TestReassembly:
    def test_packet_completes_once(self, fabric):
        completions = []
        fabric.packet_sink = lambda p, c: completions.append(p.packet_id)
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert completions.count(packet.packet_id) == 1

    def test_received_cycle_set(self, fabric):
        packet = offer(fabric, bits=512)
        assert fabric.drain()
        assert packet.received_cycle > packet.created_cycle
        assert packet.injected_cycle >= packet.created_cycle
