"""Shared network interface (NI) of a node (paper §2.3, Figure 3).

Four tiles share one NI.  The NI queues outbound packets; when a packet
reaches the head of the queue the subnet-selection policy picks a
subnet, the packet is segmented into flits no wider than the subnet
datapath, and the flits stream into the local router of that subnet.
Each subnet link carries at most one flit per cycle, but packets of
different virtual channels may interleave on it (one streaming packet
per VC), so a single-flit control packet is not blocked behind a long
data packet of another message class.  All flits of a packet travel on
the same subnet.

The NI is also where two congestion metrics are measured (injection
rate, injection-queue occupancy) and where sleeping local routers are
woken before injection.  The injection-rate averages are maintained
only when ``track_rate`` is set — the fabric sets it when the
configured congestion metric reads them (IR); otherwise they stay 0.0.

:meth:`NetworkInterface.step` is the ``ni_packetization`` phase of the
simulator's self-profile (``REPRO_PERF=1``, see ``docs/perf.md``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.noc.buffers import vc_candidates
from repro.noc.config import NocConfig
from repro.noc.flit import Flit, Packet
from repro.noc.router import PowerState
from repro.noc.topology import Port

if TYPE_CHECKING:
    from repro.core.gating import PowerGatingController
    from repro.core.policies import SubnetSelectionPolicy
    from repro.noc.network import SubnetNetwork
    from repro.noc.routing import XYRouting

__all__ = ["NetworkInterface"]

#: _rr_orders(v)[start] == ((start) % v, (start+1) % v, ...) for
#: ``0 <= start <= v``: the VC visit order of the streaming round-robin,
#: precomputed because the modulo arithmetic shows up in the per-cycle
#: injection path (``start == v`` wraps to the order of 0).
_RR_ORDERS: dict[int, tuple[tuple[int, ...], ...]] = {}

#: _LIVE_SUBNETS[mask]: the subnets whose bits are set in ``mask``, in
#: ascending order (filled on first use by :func:`_live_subnets`).
_LIVE_SUBNETS: dict[int, tuple[int, ...]] = {}


def _rr_orders(vcs: int) -> tuple[tuple[int, ...], ...]:
    orders = _RR_ORDERS.get(vcs)
    if orders is None:
        orders = tuple(
            tuple((start + k) % vcs for k in range(vcs))
            for start in range(vcs + 1)
        )
        _RR_ORDERS[vcs] = orders
    return orders


def _live_subnets(mask: int) -> tuple[int, ...]:
    subnets = _LIVE_SUBNETS.get(mask)
    if subnets is None:
        subnets = _LIVE_SUBNETS[mask] = tuple(
            subnet for subnet in range(mask.bit_length()) if mask >> subnet & 1
        )
    return subnets


class _StreamSlot:
    """A packet mid-injection on one (subnet, VC) pair."""

    __slots__ = ("packet", "flits", "index", "vc")

    def __init__(self, packet: Packet, flits: list[Flit], vc: int) -> None:
        self.packet = packet
        self.flits = flits
        self.index = 0
        self.vc = vc


class NetworkInterface:
    """Injection endpoint shared by the tiles of one node (ejected
    packets go from the router straight to the fabric's sink)."""

    def __init__(
        self,
        node: int,
        config: NocConfig,
        subnets: "list[SubnetNetwork]",
        routing: "XYRouting",
    ) -> None:
        self.node = node
        self.config = config
        self.subnets = subnets
        self.routing = routing
        self.queue: deque[Packet] = deque()
        vcs = config.vcs_per_port
        # _slots[subnet][vc]: packet streaming on that VC (or None).
        self._slots: list[list[_StreamSlot | None]] = [
            [None] * vcs for _ in range(config.num_subnets)
        ]
        self._active_slots = 0
        # _live: bit ``subnet`` is set while that subnet has an active
        # slot, so the per-cycle streaming loop touches only those.
        self._live = 0
        self._stream_rr = [0] * config.num_subnets
        self._stream_orders = _rr_orders(vcs)
        # _lanes[subnet]: what streaming into that subnet touches — the
        # slots, the network, the local router and its LOCAL input VCs
        # (whose ``free`` counts are this NI's injection credits).
        self._lanes = []
        for subnet, network in enumerate(subnets):
            router = network.routers[node]
            self._lanes.append((
                self._slots[subnet],
                network,
                router,
                router.ports[Port.LOCAL].vcs,
            ))
        # The output port every packet takes at its local router.
        self._routes = routing.rows[node]
        self.policy: "SubnetSelectionPolicy | None" = None
        self.gating: "PowerGatingController | None" = None
        self._queue_flits = 0
        # Injection-rate averages for the IR metric; only maintained
        # when track_rate is set (they cost per-cycle work on every NI).
        self.track_rate = False
        self._ir_alpha = 1.0 / config.congestion.injection_rate_window
        self._ir_rate = 0.0
        self._ir_rate_subnet = [0.0] * config.num_subnets
        #: Packets injected per subnet (Figure 12b utilization).
        self.injected_per_subnet = [0] * config.num_subnets

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def offer(self, packet: Packet, cycle: int) -> None:
        """Enqueue an outbound packet from a tile.

        ``packet.num_flits`` is fixed here: the flit count depends only
        on the (uniform) subnet width.
        """
        packet.created_cycle = cycle
        packet.num_flits = self.config.flits_per_packet(packet.size_bits)
        self.queue.append(packet)
        self._queue_flits += packet.num_flits

    def queue_occupancy_flits(self) -> int:
        """Flits waiting at this NI (queued + unsent parts of streams)."""
        return self._queue_flits

    def injection_rate(self) -> float:
        """Windowed average injection rate in packets/cycle (IR metric;
        0.0 unless ``track_rate`` is set)."""
        return self._ir_rate

    def subnet_injection_rate(self, subnet: int) -> float:
        """Windowed injection rate of this node into one subnet.

        This is the signal the IR congestion metric thresholds: a
        subnet reads congested at this node once the node pushes more
        than the threshold rate into it.
        """
        return self._ir_rate_subnet[subnet]

    # ------------------------------------------------------------------
    # Per-cycle evaluation
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Assign the head packet to a subnet and stream all subnets."""
        if not self.queue and not self._active_slots:
            # Fast path for idle NIs: only tracked injection-rate
            # averages need decaying, and only while still meaningful.
            if self.track_rate and self._ir_rate > 1e-9:
                alpha = self._ir_alpha
                self._ir_rate -= alpha * self._ir_rate
                rates = self._ir_rate_subnet
                for subnet in range(len(rates)):
                    rates[subnet] -= alpha * rates[subnet]
            return
        sent = 0
        live = self._live
        if live:
            # A subnet with no active slot is a no-op in _stream_subnet;
            # skipping the call is identical.
            for subnet in _LIVE_SUBNETS.get(live) or _live_subnets(live):
                if self._stream_subnet(subnet, cycle):
                    sent |= 1 << subnet
        # Assign after streaming so a VC whose tail left this cycle can
        # take the next packet back-to-back — but never two flits into
        # the same subnet in one cycle.
        fresh = self._assign_head(cycle)
        if fresh >= 0 and not sent & (1 << fresh):
            self._stream_subnet(fresh, cycle)
        if self.track_rate:
            alpha = self._ir_alpha
            assigned = 1.0 if fresh >= 0 else 0.0
            self._ir_rate += alpha * (assigned - self._ir_rate)
            rates = self._ir_rate_subnet
            for subnet in range(len(rates)):
                hit = 1.0 if subnet == fresh else 0.0
                rates[subnet] += alpha * (hit - rates[subnet])

    def _assign_head(self, cycle: int) -> int:
        """Assign the head packet to a subnet; return it (or -1)."""
        if not self.queue:
            return -1
        if self.policy is None:
            raise RuntimeError("NI has no selection policy")
        packet = self.queue[0]
        subnet = self.policy.select(self.node, cycle, packet)
        slots = self._slots[subnet]
        vc = -1
        for candidate in vc_candidates(
            packet.message_class, self.config.vcs_per_port
        ):
            if slots[candidate] is None:
                vc = candidate
                break
        if vc < 0:
            return -1
        self.queue.popleft()
        packet.subnet = subnet
        last = packet.num_flits - 1
        route = self._routes[packet.dst]
        flits = [
            Flit(packet, i == 0, i == last, i, route)
            for i in range(packet.num_flits)
        ]
        slots[vc] = _StreamSlot(packet, flits, vc)
        self._active_slots += 1
        self._live |= 1 << subnet
        self.injected_per_subnet[subnet] += 1
        return subnet

    def _stream_subnet(self, subnet: int, cycle: int) -> bool:
        """Send at most one flit into ``subnet``; True when one left.

        Active VC slots share the NI-to-router link round-robin.  A
        sleeping or waking local router gets one wakeup request and no
        flit.  The flits carry their route from assignment and land in
        the local router's input VC ``pipeline_cycles`` later.
        """
        slots, network, router, local_vcs = self._lanes[subnet]
        for vc in self._stream_orders[self._stream_rr[subnet]]:
            slot = slots[vc]
            if slot is None:
                continue
            if router.power_state != PowerState.ACTIVE:
                if self.gating is not None:
                    self.gating.request_wakeup(router)
                return False
            target = local_vcs[vc]
            if target.free <= 0:
                continue
            flit = slot.flits[slot.index]
            target.free -= 1
            router.held += 1
            network._ring[
                (cycle + network._inject_cycles) % network._ring_len
            ].append((target, flit))
            network.flits_in_network += 1
            counters = network.counters
            counters.flits_injected += 1
            if flit.is_head:
                slot.packet.injected_cycle = cycle
                counters.packets_injected += 1
            self._queue_flits -= 1
            slot.index += 1
            if flit.is_tail:
                slots[vc] = None
                self._active_slots -= 1
                if not any(slots):
                    self._live ^= 1 << subnet
            self._stream_rr[subnet] = vc + 1
            return True
        return False
