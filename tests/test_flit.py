"""Tests for packets and flits."""

from __future__ import annotations

import pytest

from repro.noc.flit import Flit, MessageClass, Packet


class TestPacket:
    def test_latency_requires_reception(self):
        packet = Packet(src=0, dst=1, size_bits=512)
        with pytest.raises(ValueError):
            _ = packet.latency

    def test_latency(self):
        packet = Packet(
            src=0, dst=1, size_bits=512,
            created_cycle=10, injected_cycle=12, received_cycle=30,
        )
        assert packet.latency == 20
        assert packet.network_latency == 18

    def test_network_latency_requires_injection(self):
        packet = Packet(src=0, dst=1, size_bits=512, received_cycle=5)
        with pytest.raises(ValueError):
            _ = packet.network_latency

    def test_unique_ids(self):
        a = Packet(src=0, dst=1, size_bits=8)
        b = Packet(src=0, dst=1, size_bits=8)
        assert a.packet_id != b.packet_id


class TestFlit:
    def test_single_flit_packet_flags(self):
        packet = Packet(src=0, dst=1, size_bits=72)
        flit = Flit(packet, is_head=True, is_tail=True, index=0)
        assert flit.is_head and flit.is_tail

    def test_defaults(self):
        packet = Packet(src=0, dst=1, size_bits=72)
        flit = Flit(packet, True, False, 0)
        assert flit.route == -1


class TestMessageClass:
    def test_all_classes_distinct(self):
        assert len(set(MessageClass.ALL)) == 4
