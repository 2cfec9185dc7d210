"""Reference router pipeline: a per-router, full-scan allocator.

The simulator runs one router step, the occupancy-mask scan of
:meth:`repro.noc.network.SubnetNetwork.step_routers`, with its flit
departures inlined and its counters charged once per call.  This module
keeps the straightforward formulation it replaced as a test oracle:
every router with buffered flits scans all of its input VCs in
round-robin rotated order and moves winners one flit at a time through
its own per-flit :func:`_send` and :func:`_eject`, which charge the
counters and write the packet's ``hops`` and ``head_ejected_cycle``
flit by flit.  The two must leave a fabric in the same state, bit for
bit.

Install it on a fabric with :func:`install_oracle`; the kernels call
``network.step_routers`` on the instance, so the shadow replaces the
step on both ``dense`` and ``skip``.
"""

from __future__ import annotations

from repro.noc.buffers import vc_candidates
from repro.noc.topology import Port

__all__ = ["oracle_router_step", "oracle_step_routers", "install_oracle"]


def _send(network, flit, downstream, in_port: int, vc: int,
          cycle: int) -> None:
    """Put ``flit`` on the link toward ``downstream``: it lands in the
    input VC ``(in_port, vc)`` ``hop_cycles`` later."""
    network._ring[(cycle + network._hop_cycles) % network._ring_len].append(
        (downstream.ports[in_port].vcs[vc], flit)
    )
    downstream.held += 1
    if flit.is_head:
        flit.packet.hops += 1
    counters = network.counters
    counters.buffer_reads += 1
    counters.crossbar_traversals += 1
    counters.link_traversals += 1


def _eject(network, flit, cycle: int) -> None:
    """Count an ejected flit; hand a tail's packet to the fabric."""
    counters = network.counters
    counters.buffer_reads += 1
    counters.crossbar_traversals += 1
    counters.flits_ejected += 1
    network.flits_in_network -= 1
    if flit.is_head:
        flit.packet.head_ejected_cycle = cycle
    if flit.is_tail:
        counters.packets_ejected += 1
        if network.eject_sink is None:
            raise RuntimeError("no ejection sink installed")
        flit.packet.received_cycle = cycle
        network.eject_sink(flit.packet, cycle)


def oracle_router_step(network, router, cycle: int) -> None:
    """Run VC allocation, switch allocation, and traversal on ``router``.

    Winners are popped from their input VCs and handed to the network's
    delay line (or ejected to the NI); credits flow back to the
    senders.  Credits and output-VC ownership are read and written on
    the downstream input VCs (``free``, ``owned``) by index, one VC at
    a time, independently of the real step's link tuples.  At most one
    flit leaves per input port and per output port per cycle (crossbar
    constraint).
    """

    def allocate_vc(channel, flit, out_port: int) -> bool:
        # A sleeping downstream router cannot grant VCs; the allocator
        # issues a wakeup request instead.
        downstream = router.neighbor_router[out_port]
        if downstream is None:
            raise RuntimeError(
                f"route to missing neighbour at node {router.node} "
                f"port {Port.NAMES[out_port]}"
            )
        if downstream.power_state:
            network.gating.request_wakeup(downstream)
            return False
        owner = downstream_vcs(out_port)
        candidates = vc_candidates(
            flit.packet.message_class, router.vcs_per_port
        )
        start = router._vc_rr
        router._vc_rr = (start + 1) % len(candidates)
        for j in range(len(candidates)):
            vc = candidates[(j + start) % len(candidates)]
            if not owner[vc].owned:
                owner[vc].owned = True
                channel.out_port = out_port
                channel.out_vc = vc
                return True
        return False

    def downstream_vcs(out_port: int):
        downstream = router.neighbor_router[out_port]
        return downstream.ports[Port.OPPOSITE[out_port]].vcs

    def lookahead_route(out_port: int, dst: int) -> int:
        return network.routing.output_port(
            router.neighbor_router[out_port].node, dst
        )

    def pop(in_port: int, in_vc: int):
        # Dequeue, keep the occupancy mask the real step scans in
        # sync, and return the credit to the VC's sender.
        port = router.ports[in_port]
        channel = port.vcs[in_vc]
        port.pop(in_vc)
        if not channel.fifo:
            router.mask &= ~(1 << (in_port * router.vcs_per_port + in_vc))
        router.held -= 1
        channel.free += 1
        return channel

    def forward(in_port, in_vc, flit, out_port, out_vc, downstream,
                next_route) -> None:
        channel = router.ports[in_port].vcs[in_vc]
        pop(in_port, in_vc)
        downstream_vcs(out_port)[out_vc].free -= 1
        if flit.is_tail:
            downstream_vcs(out_port)[out_vc].owned = False
            channel.release_allocation()
        flit.route = next_route
        _send(network, flit, downstream, Port.OPPOSITE[out_port], out_vc,
              cycle)

    def eject(in_port, in_vc, flit) -> None:
        channel = pop(in_port, in_vc)
        if flit.is_tail and channel.has_allocation:
            channel.release_allocation()
        _eject(network, flit, cycle)

    if not router.mask:
        return
    scan = [
        (p, 1 << p, v, router.ports[p].vcs[v])
        for p in range(Port.COUNT)
        for v in range(router.vcs_per_port)
    ]
    total = len(scan)
    offset = router._rr
    router._rr = (offset + 1) % total
    if offset:
        scan = scan[offset:] + scan[:offset]
    used_in = 0
    used_out = 0
    heads_waiting = 0
    moved = 0
    for in_port, in_bit, in_vc, channel in scan:
        fifo = channel.fifo
        if not fifo:
            continue
        heads_waiting += 1
        if used_in & in_bit:
            continue
        flit = fifo[0]
        out_port = flit.route
        out_bit = 1 << out_port
        if used_out & out_bit:
            continue
        if out_port == Port.LOCAL:
            # Ejection: no VC allocation needed, bandwidth one
            # flit/cycle through the local output.
            eject(in_port, in_vc, flit)
            used_in |= in_bit
            used_out |= out_bit
            moved += 1
            continue
        if channel.out_port < 0 and not allocate_vc(channel, flit, out_port):
            continue
        out_vc = channel.out_vc
        if downstream_vcs(out_port)[out_vc].free <= 0:
            continue
        downstream = router.neighbor_router[out_port]
        if downstream is None or downstream.power_state:
            # Sleeping/waking next hop: look-ahead wakeup request.
            if downstream is not None:
                network.gating.request_wakeup(downstream)
            continue
        forward(
            in_port, in_vc, flit, out_port, out_vc, downstream,
            lookahead_route(out_port, flit.packet.dst),
        )
        used_in |= in_bit
        used_out |= out_bit
        moved += 1
    if router.track_blocking:
        # Blocking proxy for the Delay metric: every head flit that
        # stayed put this cycle accrued one blocked flit-cycle.
        router.blocked_accum += heads_waiting - moved
        router.moved_accum += moved


def oracle_step_routers(network, cycle: int) -> None:
    """``SubnetNetwork.step_routers`` built on :func:`oracle_router_step`."""
    for router in network.routers:
        if router.mask:
            oracle_router_step(network, router, cycle)
    network.counters.flit_cycles += network.flits_in_network


def install_oracle(fabric) -> None:
    """Shadow every subnet's ``step_routers`` with the oracle."""
    for network in fabric.subnets:
        network.step_routers = (
            lambda cycle, network=network: oracle_step_routers(network, cycle)
        )
