"""A single subnetwork: a mesh of routers plus its transfer delay line.

One of the N equal subnets of the paper's Multi-NoC (§2.2, Figure 1) —
a Single-NoC is the N=1 special case.  :class:`SubnetNetwork` owns the
routers of one subnet, runs their pipeline
(:meth:`SubnetNetwork.step_routers`, the one router step every kernel
calls), moves flits between them with the configured pipeline + link
latency, returns credits, and accumulates the :class:`ActivityCounters`
the power model (§4.2) consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.noc.buffers import VirtualChannel, vc_candidates
from repro.noc.config import NocConfig
from repro.noc.flit import Flit, Packet
from repro.noc.router import PowerState, Router
from repro.noc.routing import XYRouting
from repro.noc.topology import ConcentratedMesh, Port

if TYPE_CHECKING:
    from repro.core.gating import PowerGatingController

__all__ = ["SubnetNetwork", "ActivityCounters"]

#: _ALLOC_ORDERS[(mc, V)][start]: the VC allocator's visit order
#: ``candidates[(j + start) % n]`` for message class ``mc``.
_ALLOC_ORDERS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

#: _SCAN_TABLES[V]: constant allocator tables for V VCs per port —
#: (position, port_masks, advance); see :func:`_scan_tables`.
_SCAN_TABLES: dict[int, tuple] = {}


def _alloc_orders(
    message_class: int, vcs: int
) -> tuple[tuple[int, ...], ...]:
    key = (message_class, vcs)
    orders = _ALLOC_ORDERS.get(key)
    if orders is None:
        candidates = vc_candidates(message_class, vcs)
        n = len(candidates)
        orders = tuple(
            tuple(candidates[(j + start) % n] for j in range(n))
            for start in range(n)
        )
        _ALLOC_ORDERS[key] = orders
    return orders


def _scan_tables(vcs: int) -> tuple:
    """Allocator tables over a router's occupancy mask rotated by its
    round-robin offset (``n = P * V`` input VCs, bit ``j`` of the
    rotated mask is VC ``j + offset`` of the doubled ``scan`` tuple),
    built once per VC count: ``position[1 << j]`` is ``j``;
    ``port_masks[offset][j]`` is every bit but those of that VC's input
    port, so clearing them the moment that port wins the crossbar
    enforces one flit per input port per cycle; ``advance[offset]`` is
    the next cycle's offset."""
    tables = _SCAN_TABLES.get(vcs)
    if tables is None:
        total = Port.COUNT * vcs
        full = (1 << total) - 1
        ones = (1 << vcs) - 1

        def port_mask(offset: int, j: int) -> int:
            bits = ones << ((j + offset) % total // vcs * vcs)
            rotated = (bits >> offset) | (bits << (total - offset))
            return full & ~rotated

        tables = _SCAN_TABLES[vcs] = (
            {1 << j: j for j in range(total)},
            tuple(
                tuple(port_mask(offset, j) for j in range(total))
                for offset in range(total)
            ),
            tuple((offset + 1) % total for offset in range(total)),
        )
    return tables


def _no_wakeup(router: Router) -> None:
    """Look-ahead wakeup target of a subnet without a gating
    controller."""


class ActivityCounters:
    """Per-subnet event counts consumed by the power model.

    All counts are in flit events; ``flit_cycles`` integrates buffered
    flits over time (for average-occupancy statistics).
    """

    __slots__ = (
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
        "link_traversals",
        "flits_injected",
        "flits_ejected",
        "packets_injected",
        "packets_ejected",
        "flit_cycles",
    )

    def __init__(self) -> None:
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.crossbar_traversals = 0
        self.link_traversals = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_injected = 0
        self.packets_ejected = 0
        self.flit_cycles = 0

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}


class SubnetNetwork:
    """One subnet's routers, links, and bookkeeping.

    Parameters
    ----------
    subnet:
        Index of this subnet within the Multi-NoC (0 = lowest order).
    config:
        Shared fabric configuration.
    mesh, routing:
        Topology and routing function shared by all subnets.
    """

    def __init__(
        self,
        subnet: int,
        config: NocConfig,
        mesh: ConcentratedMesh,
        routing: XYRouting,
    ) -> None:
        self.subnet = subnet
        self.config = config
        self.mesh = mesh
        self.routing = routing
        self.counters = ActivityCounters()
        self.routers = [
            Router(node, subnet, config.vcs_per_port, config.flits_per_vc)
            for node in range(mesh.num_nodes)
        ]
        rows = routing.rows
        for node in range(mesh.num_nodes):
            for port, neighbor in mesh.neighbors(node).items():
                self.routers[node].connect(
                    port, self.routers[neighbor], rows[neighbor]
                )
        self._hop_cycles = config.timing.hop_cycles
        #: Cycles from NI injection to landing in the local router.
        self._inject_cycles = config.timing.pipeline_cycles
        ring_len = self._hop_cycles + 1
        # _ring[cycle % ring_len]: (channel, flit) for every flit that
        # lands in input VC ``channel`` at that cycle.
        self._ring: list[list[tuple[VirtualChannel, Flit]]] = [
            [] for _ in range(ring_len)
        ]
        self._ring_len = ring_len
        self._scan = _scan_tables(config.vcs_per_port)
        #: callable(packet, cycle) installed by the fabric; receives
        #: every packet whose tail ejects, ``received_cycle`` stamped.
        self.eject_sink: Callable[[Packet, int], None] | None = None
        #: The gating controller, installed by it; the router step
        #: sends look-ahead wakeup requests to its ``request_wakeup``.
        self.gating: "PowerGatingController | None" = None
        #: Flits currently inside this subnet (buffered + in flight).
        self.flits_in_network = 0

    # ------------------------------------------------------------------
    # Per-cycle evaluation
    # ------------------------------------------------------------------
    def deliver_arrivals(self, cycle: int) -> None:
        """Land all flits whose link traversal completes this cycle.

        The one flit-arrival path: each flit is appended to its input
        VC, and the port occupancy and the router's occupancy-mask bit
        follow.  The router's ``held`` count already includes the flit
        (it grew when the flit was sent), and so its gating idle
        counter has been held at zero since.  A flit reaching a full VC
        is a credit bug.
        """
        slot = self._ring[cycle % self._ring_len]
        if not slot:
            return
        for channel, flit in slot:
            fifo = channel.fifo
            if len(fifo) >= channel.depth:
                raise OverflowError("flit arrived at a full VC (credit bug)")
            fifo.append(flit)
            channel.port.occupancy += 1
            channel.router.mask |= channel.bit
        self.counters.buffer_writes += len(slot)
        slot.clear()

    def step_routers(self, cycle: int) -> None:
        """One router clock: VC allocation, switch allocation and
        traversal on every router holding flits (paper §2.1, §4.1).

        Each router's allocator scans its input VCs ``(p, v)`` in index
        order ``p * V + v``, starting at its round-robin offset ``_rr``
        (advanced every busy cycle).  The scan walks the set bits of the
        router's occupancy mask, rotated by that offset, so empty VCs
        cost nothing.  A head flit wins when its input port and output
        port are both unclaimed this cycle, it holds (or is granted) an
        output VC, the downstream VC has a credit, and the next hop is
        awake; a sleeping or waking next hop gets a look-ahead wakeup
        request to the gating controller instead.  Winners leave for
        the downstream router's input ``hop_cycles`` later with their
        look-ahead route computed, or eject to the NI, and return a
        credit to their sender as ``channel.free += 1``.  An ejecting
        head flit stamps its packet's ``head_ejected_cycle``; an
        ejecting tail stamps its ``received_cycle`` and hands the
        packet to ``eject_sink``.

        Counters and ``flits_in_network`` are charged once per call,
        each router's ``held`` once per router.
        """
        if not self.flits_in_network:
            return
        position, port_masks, advance = self._scan
        total = len(advance)
        full = (1 << total) - 1
        send_append = self._ring[
            (cycle + self._hop_cycles) % self._ring_len
        ].append
        eject_sink = self.eject_sink
        vcs = self.config.vcs_per_port
        # Bound once per call, so a shadow on the controller's
        # request_wakeup (telemetry, faults) sees every request.
        gating = self.gating
        request_wakeup = (
            _no_wakeup if gating is None else gating.request_wakeup
        )
        orders_get = _ALLOC_ORDERS.get
        local = Port.LOCAL
        moved_flits = 0
        ejected = 0
        packets_ejected = 0
        for router in self.routers:
            mask = router.mask
            if not mask:
                continue
            offset = router._rr
            router._rr = advance[offset]
            rot = ((mask >> offset) | (mask << (total - offset))) & full
            # Every head flit present at the start of the cycle is a
            # candidate (a pop only empties the VC being visited).
            track = router.track_blocking
            heads = mask.bit_count() if track else 0
            scan = router.scan
            pmasks = port_masks[offset]
            links = router.links
            used_out = 0
            moved = 0
            while rot:
                low = rot & -rot
                rot ^= low
                j = position[low]
                channel = scan[j + offset]
                fifo = channel.fifo
                flit = fifo[0]
                out_port = flit.route
                out_bit = 1 << out_port
                if used_out & out_bit:
                    continue
                if out_port == local:
                    # Ejection: no VC allocation, one flit per cycle
                    # through the local output.
                    del fifo[0]
                    channel.port.occupancy -= 1
                    channel.free += 1
                    if flit.is_tail and channel.out_port >= 0:
                        channel.out_port = -1
                        channel.out_vc = -1
                    ejected += 1
                    if flit.is_head:
                        flit.packet.head_ejected_cycle = cycle
                    if flit.is_tail:
                        packets_ejected += 1
                        if eject_sink is None:
                            raise RuntimeError("no ejection sink installed")
                        packet = flit.packet
                        packet.received_cycle = cycle
                        eject_sink(packet, cycle)
                else:
                    downstream, down_vcs, next_row = links[out_port]
                    out_vc = channel.out_vc
                    if out_vc < 0:
                        # VC allocation: round-robin over the VCs the
                        # packet's message class may use.
                        if downstream is None:
                            raise RuntimeError(
                                f"route to missing neighbour at node "
                                f"{router.node} port {Port.NAMES[out_port]}"
                            )
                        if downstream.power_state:
                            request_wakeup(downstream)
                            continue
                        mc = flit.packet.message_class
                        orders = orders_get((mc, vcs))
                        if orders is None:
                            orders = _alloc_orders(mc, vcs)
                        n = len(orders)
                        start = router._vc_rr
                        router._vc_rr = (start + 1) % n
                        for out_vc in orders[start % n]:
                            target = down_vcs[out_vc]
                            if not target.owned:
                                target.owned = True
                                channel.out_port = out_port
                                channel.out_vc = out_vc
                                break
                        else:
                            continue
                        if target.free <= 0:
                            continue
                    else:
                        target = down_vcs[out_vc]
                        if target.free <= 0:
                            continue
                        if downstream.power_state:
                            request_wakeup(downstream)
                            continue
                    # Switch traversal onto the link, with the
                    # look-ahead route for the next hop.
                    del fifo[0]
                    channel.port.occupancy -= 1
                    target.free -= 1
                    channel.free += 1
                    if flit.is_tail:
                        target.owned = False
                        channel.out_port = -1
                        channel.out_vc = -1
                    flit.route = next_row[flit.packet.dst]
                    send_append((target, flit))
                    downstream.held += 1
                    if flit.is_head:
                        # Head-flit link traversals count the packet's
                        # hops (its X-Y routing distance).
                        flit.packet.hops += 1
                if not fifo:
                    mask ^= channel.bit
                rot &= pmasks[j]
                used_out |= out_bit
                moved += 1
            router.mask = mask
            router.held -= moved
            moved_flits += moved
            if track:
                # Blocking proxy for the Delay metric: every head flit
                # that stayed put this cycle accrued one blocked cycle.
                router.blocked_accum += heads - moved
                router.moved_accum += moved
        counters = self.counters
        if moved_flits:
            counters.buffer_reads += moved_flits
            counters.crossbar_traversals += moved_flits
            counters.link_traversals += moved_flits - ejected
            counters.flits_ejected += ejected
            counters.packets_ejected += packets_ejected
            self.flits_in_network -= ejected
        counters.flit_cycles += self.flits_in_network

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def resync_credits(self) -> int:
        """Recompute every input VC's ``free`` credits from ground truth.

        Credit-resynchronization recovery (:mod:`repro.faults`): the
        correct count is the VC's capacity minus its buffered flits
        minus the flits in flight toward it (mesh-edge VCs never
        receive, so theirs already is).  Returns the total absolute
        correction applied (0 when every counter was already consistent
        — the steady state without faults).
        """
        in_flight: dict[int, int] = {}
        for slot in self._ring:
            for channel, _flit in slot:
                key = id(channel)
                in_flight[key] = in_flight.get(key, 0) + 1
        capacity = self.config.flits_per_vc
        corrected = 0
        for router in self.routers:
            for channel in router.channels:
                queued = len(channel.fifo) + in_flight.get(id(channel), 0)
                truth = capacity - queued
                if channel.free != truth:
                    corrected += abs(channel.free - truth)
                    channel.free = truth
        return corrected

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self):
        """Yield every link-in-flight flit as (router, in_port, vc, flit).

        ``router`` is the destination the flit will land at.  Used by
        the runtime invariant checker (:mod:`repro.analysis.invariants`)
        to recount credits and conservation laws from first principles;
        the delay-line internals stay private to this class.
        """
        for slot in self._ring:
            for channel, flit in slot:
                in_port, vc = channel.position
                yield channel.router, in_port, vc, flit

    @property
    def is_idle(self) -> bool:
        """True when no flit is buffered or in flight in this subnet."""
        return self.flits_in_network == 0

    def active_router_count(self) -> int:
        """Number of routers currently in the ACTIVE power state."""
        return sum(
            1
            for router in self.routers
            if router.power_state == PowerState.ACTIVE
        )
