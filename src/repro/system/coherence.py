"""4-hop MESI directory protocol message generation (paper §4.1).

Every L1 miss becomes a directory transaction at the home L2 slice:

* **request** — 1-flit control packet, requestor -> home.
* **L2 hit, clean** — home replies with a data packet (64 B + 72 b
  header) after the 6-cycle bank latency.
* **L2 hit, owned remotely** — home forwards a control packet to the
  owner, which sends the data to the requestor (the 4-hop path).
* **L2 miss** — home forwards a control packet to the line's memory
  controller; DRAM access (80 cycles + channel queueing) and the data
  returns directly to the requestor.
* **invalidations** — a fraction of transactions send an invalidate to
  a sharer, which acknowledges to the requestor (control traffic that
  loads the network but does not gate completion — a simplification
  recorded in DESIGN.md).
* **writebacks** — a fraction of misses evict a dirty line: a
  fire-and-forget data packet to the home node.

Message classes map onto disjoint virtual channels (request / forward /
response), preserving protocol-level deadlock freedom as in the paper.
The resulting packet mix is ~60 % single-flit control packets, matching
the paper's reported workload composition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.noc.backend import NEVER
from repro.noc.config import CONTROL_PACKET_BITS, DATA_PACKET_BITS
from repro.noc.flit import MessageClass, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.system.memory import MemorySystem
from repro.util.rng import DeterministicRng

__all__ = ["CoherenceParams", "Transaction", "CoherenceEngine"]


@dataclass(frozen=True)
class CoherenceParams:
    """Protocol behaviour probabilities and latencies."""

    l2_hit_rate: float = 0.80
    forward_fraction: float = 0.20
    invalidate_fraction: float = 0.20
    writeback_fraction: float = 0.30
    l2_latency: int = 6
    l1_latency: int = 2

    def __post_init__(self) -> None:
        for name in (
            "l2_hit_rate",
            "forward_fraction",
            "invalidate_fraction",
            "writeback_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")


@dataclass
class Transaction:
    """One outstanding L1 miss."""

    core_id: int
    node: int
    start_cycle: int
    #: Core-local miss token (see :meth:`CoreModel.issue_miss`).
    token: int = -1
    complete_cycle: int = -1


class CoherenceEngine:
    """Generates and sinks all coherence messages for the processor."""

    def __init__(
        self,
        fabric: MultiNocFabric,
        memory: MemorySystem,
        params: CoherenceParams,
        on_complete: Callable[[Transaction, int], None],
        seed: int = 23,
    ) -> None:
        self.fabric = fabric
        self.memory = memory
        self.params = params
        self.on_complete = on_complete
        self.rng = DeterministicRng(seed, "coherence")
        self._events: list[tuple[int, int, Callable[[int], None]]] = []
        self._seq = 0
        self.transactions_started = 0
        self.transactions_completed = 0
        self.control_packets = 0
        self.data_packets = 0
        fabric.packet_sink = self._on_packet

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _schedule(
        self, cycle: int, action: Callable[[int], None]
    ) -> None:
        heapq.heappush(self._events, (cycle, self._seq, action))
        self._seq += 1

    def next_event_cycle(self) -> int:
        """Cycle of the earliest scheduled action (``NEVER`` if none)."""
        events = self._events
        return events[0][0] if events else NEVER

    def process_due(self, cycle: int) -> None:
        """Run every scheduled action due at or before ``cycle``."""
        events = self._events
        while events and events[0][0] <= cycle:
            _, _, action = heapq.heappop(events)
            action(cycle)

    def _send(
        self,
        src: int,
        dst: int,
        size_bits: int,
        message_class: int,
        handler: Callable[[int], None] | None,
    ) -> None:
        if size_bits > CONTROL_PACKET_BITS:
            self.data_packets += 1
        else:
            self.control_packets += 1
        self.fabric.offer(
            Packet(
                src=src,
                dst=dst,
                size_bits=size_bits,
                message_class=message_class,
                payload=handler,
            )
        )

    def _on_packet(self, packet: Packet, cycle: int) -> None:
        handler = packet.payload
        if handler is not None:
            handler(cycle)

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------
    def start_transaction(self, txn: Transaction, cycle: int) -> None:
        """Begin the directory transaction for an L1 miss."""
        self.transactions_started += 1
        rng = self.rng
        home = rng.randrange(self.fabric.mesh.num_nodes)
        if rng.random() < self.params.writeback_fraction:
            # Dirty eviction accompanying the miss (fire-and-forget).
            wb_home = rng.randrange(self.fabric.mesh.num_nodes)
            if wb_home != txn.node:
                self._send(
                    txn.node,
                    wb_home,
                    DATA_PACKET_BITS,
                    MessageClass.RESPONSE,
                    None,
                )
        if home == txn.node:
            self._schedule(
                cycle + self.params.l2_latency,
                lambda c, t=txn, h=home: self._at_directory(t, h, c),
            )
            return
        self._send(
            txn.node,
            home,
            CONTROL_PACKET_BITS,
            MessageClass.REQUEST,
            lambda c, t=txn, h=home: self._schedule(
                c + self.params.l2_latency,
                lambda c2: self._at_directory(t, h, c2),
            ),
        )

    def _at_directory(self, txn: Transaction, home: int, cycle: int) -> None:
        rng = self.rng
        params = self.params
        if rng.random() < params.invalidate_fraction:
            self._send_invalidate(txn, home)
        if rng.random() < params.l2_hit_rate:
            if rng.random() < params.forward_fraction:
                self._forward_to_owner(txn, home)
            else:
                self._reply_data(txn, home)
        else:
            self._go_to_memory(txn, home, cycle)

    def _reply_data(self, txn: Transaction, home: int) -> None:
        if home == txn.node:
            # Local L2 hit: no network round trip.
            self._schedule(
                self.fabric.cycle + 1,
                lambda c, t=txn: self._complete(t, c),
            )
            return
        self._send(
            home,
            txn.node,
            DATA_PACKET_BITS,
            MessageClass.RESPONSE,
            lambda c, t=txn: self._complete(t, c),
        )

    def _forward_to_owner(self, txn: Transaction, home: int) -> None:
        owner = self.rng.randrange(self.fabric.mesh.num_nodes)
        if owner in (home, txn.node):
            self._reply_data(txn, home)
            return
        self._send(
            home,
            owner,
            CONTROL_PACKET_BITS,
            MessageClass.FORWARD,
            lambda c, t=txn, o=owner: self._schedule(
                c + self.params.l1_latency,
                lambda c2: self._owner_reply(t, o, c2),
            ),
        )

    def _owner_reply(self, txn: Transaction, owner: int, cycle: int) -> None:
        self._send(
            owner,
            txn.node,
            DATA_PACKET_BITS,
            MessageClass.RESPONSE,
            lambda c, t=txn: self._complete(t, c),
        )

    def _go_to_memory(self, txn: Transaction, home: int, cycle: int) -> None:
        mc = self.memory.controller_for(self.rng.getrandbits(30))
        if mc.node == home:
            ready = mc.access(cycle)
            self._schedule(
                ready, lambda c, t=txn, m=mc: self._memory_reply(t, m, c)
            )
            return
        self._send(
            home,
            mc.node,
            CONTROL_PACKET_BITS,
            MessageClass.FORWARD,
            lambda c, t=txn, m=mc: self._schedule(
                m.access(c),
                lambda c2: self._memory_reply(t, m, c2),
            ),
        )

    def _memory_reply(self, txn: Transaction, mc, cycle: int) -> None:
        if mc.node == txn.node:
            self._complete(txn, cycle)
            return
        self._send(
            mc.node,
            txn.node,
            DATA_PACKET_BITS,
            MessageClass.RESPONSE,
            lambda c, t=txn: self._complete(t, c),
        )

    def _send_invalidate(self, txn: Transaction, home: int) -> None:
        sharer = self.rng.randrange(self.fabric.mesh.num_nodes)
        if sharer == home:
            return
        # Invalidate to the sharer; the sharer acks to the requestor.
        # Acks load the network but do not gate completion (DESIGN.md).
        def ack(cycle: int, s: int = sharer) -> None:
            if s != txn.node:
                self._send(
                    s,
                    txn.node,
                    CONTROL_PACKET_BITS,
                    MessageClass.RESPONSE,
                    None,
                )

        self._send(
            home, sharer, CONTROL_PACKET_BITS, MessageClass.FORWARD, ack
        )

    def _complete(self, txn: Transaction, cycle: int) -> None:
        txn.complete_cycle = cycle
        self.transactions_completed += 1
        self.on_complete(txn, cycle)

    # ------------------------------------------------------------------
    @property
    def control_fraction(self) -> float:
        """Fraction of generated packets that are single-flit control."""
        total = self.control_packets + self.data_packets
        return self.control_packets / total if total else 0.0
