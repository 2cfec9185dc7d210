"""Packets and flits (paper §2.3, §4.1).

A message is carried as one :class:`Packet`; the network interface
segments a packet into :class:`Flit` units no wider than the subnet
datapath, so flit count per packet scales with the number of subnets
(the serialization cost of Figure 6).  All flits of a packet travel on
the same subnet (paper §2.3), so a packet records its subnet at
injection.  :class:`MessageClass` carries the MESI message type used by
class-partitioned selection (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

__all__ = ["Packet", "Flit", "MessageClass"]

_packet_ids = count()


class MessageClass:
    """Symbolic message classes mapped onto virtual channels.

    The paper avoids protocol deadlock by assigning dependent message
    classes to different virtual channels within every subnet (§2.3).
    """

    REQUEST = 0
    FORWARD = 1
    RESPONSE = 2
    SYNTHETIC = 3

    ALL = (REQUEST, FORWARD, RESPONSE, SYNTHETIC)


@dataclass(slots=True)
class Packet:
    """One network message.

    Attributes
    ----------
    src, dst:
        Node ids (router positions) of the sender and receiver.
    size_bits:
        Payload + header size; the NI derives the flit count from the
        subnet width.
    message_class:
        Virtual-channel class (see :class:`MessageClass`).
    created_cycle:
        Cycle the packet was handed to the NI (for end-to-end latency).
    injected_cycle:
        Cycle the head flit left the injection queue into a subnet.
    received_cycle:
        Cycle the tail flit was ejected at the destination.
    head_ejected_cycle:
        Cycle the head flit was ejected at the destination (-1 until
        then, and for good when a fault drops the head in flight).  With
        ``injected_cycle`` and ``hops`` it fixes the head's router
        residency: every hop costs ``hop_cycles`` and injection
        ``pipeline_cycles``, so the rest of the span was spent buffered.
    subnet:
        Subnet chosen at injection (-1 before injection).
    hops:
        Router-to-router link traversals of the head flit — under X-Y
        routing this equals the Manhattan distance between ``src`` and
        ``dst`` nodes (0 for tile pairs sharing a node).
    tenant:
        Originating tenant for multi-tenant serving workloads
        (:mod:`repro.workloads`); -1 marks untagged traffic, which is
        excluded from per-tenant QoS statistics.
    """

    src: int
    dst: int
    size_bits: int
    message_class: int = MessageClass.SYNTHETIC
    created_cycle: int = 0
    injected_cycle: int = -1
    received_cycle: int = -1
    head_ejected_cycle: int = -1
    subnet: int = -1
    num_flits: int = 0
    hops: int = 0
    tenant: int = -1
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Opaque payload for closed-loop system simulation (e.g. the
    #: transaction this message belongs to).
    payload: object = None

    @property
    def latency(self) -> int:
        """End-to-end latency (creation to tail ejection)."""
        if self.received_cycle < 0:
            raise ValueError("packet has not been received yet")
        return self.received_cycle - self.created_cycle

    @property
    def network_latency(self) -> int:
        """Latency from injection into the subnet to tail ejection."""
        if self.received_cycle < 0 or self.injected_cycle < 0:
            raise ValueError("packet has not traversed the network yet")
        return self.received_cycle - self.injected_cycle


@dataclass(slots=True)
class Flit:
    """One flow-control unit of a packet.

    ``route`` is the precomputed output port for the *current* router
    (look-ahead routing): it is set for the next hop while the flit is
    traversing the switch of the previous one.
    """

    packet: Packet
    is_head: bool
    is_tail: bool
    index: int
    #: Output port at the current router, precomputed one hop ahead.
    route: int = -1
