"""Two-stage speculative virtual-channel router: state and wiring.

Models the paper's router microarchitecture (§2.1, §4.1): five ports
(four neighbours + local NI), input-buffered with credit-based VC flow
control, wormhole switching, look-ahead X-Y routing, and a separable
round-robin switch allocator.  The two pipeline stages plus one link
cycle give the 3-cycle per-hop latency used throughout.

A :class:`Router` holds its buffers (each input VC carries the credit
and ownership state of the link into it), allocation state and an
occupancy bitmask; the pipeline itself runs once per subnet in
:meth:`repro.noc.network.SubnetNetwork.step_routers`, for every router
of the subnet in one call.

Power-gating hooks: a router exposes a coarse power state
(ACTIVE/SLEEP/WAKEUP) managed by a gating controller; a non-active
router accepts no flits, and upstream routers issue look-ahead wakeup
requests when a head flit targets a sleeping next hop.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from repro.noc.buffers import InputPort
from repro.noc.topology import Port

__all__ = ["PowerState", "Router"]

#: ``links`` entry of an output port without a downstream router.
_NO_LINK: tuple = (None, (), ())


class PowerState:
    """Coarse router power states (paper §3.1)."""

    ACTIVE = 0
    SLEEP = 1
    WAKEUP = 2

    NAMES = ("active", "sleep", "wakeup")


class Router:
    """One router of one subnet.

    The router does not decide its own power transitions; a gating
    controller (see :mod:`repro.core.gating`) drives ``power_state``
    through :meth:`can_sleep`-style queries and the network step loop.
    """

    __slots__ = (
        "node",
        "subnet",
        "ports",
        "channels",
        "scan",
        "mask",
        "neighbor_router",
        "links",
        "vcs_per_port",
        "flits_per_vc",
        "held",
        "power_state",
        "idle_cycles",
        "track_blocking",
        "blocked_accum",
        "moved_accum",
        "_rr",
        "_vc_rr",
    )

    def __init__(
        self,
        node: int,
        subnet: int,
        vcs_per_port: int,
        flits_per_vc: int,
    ) -> None:
        self.node = node
        self.subnet = subnet
        self.vcs_per_port = vcs_per_port
        self.flits_per_vc = flits_per_vc
        self.ports = [
            InputPort(vcs_per_port, flits_per_vc, self, port)
            for port in range(Port.COUNT)
        ]
        # channels[p * V + v]: input VC (p, v) in the allocator's scan
        # order; mask bit p * V + v is set iff that VC holds a flit.
        self.channels = tuple(
            chain.from_iterable([port.vcs for port in self.ports])
        )
        # scan[i] == channels[i % (P * V)]: the allocator indexes VCs
        # from its round-robin offset without wrapping.
        self.scan = self.channels * 2
        self.mask = 0
        # Downstream router object per output port (None at mesh edges
        # and for LOCAL, which ejects to the NI).
        self.neighbor_router: list[Router | None] = [None] * Port.COUNT
        # links[out_port]: (downstream router, the downstream input VCs
        # a flit leaving on (out_port, vc) lands in — their ``free`` and
        # ``owned`` are this output's credits and VC ownership — and
        # the downstream node's route row for look-ahead routing);
        # _NO_LINK where there is no neighbour.
        self.links: list[tuple] = [_NO_LINK] * Port.COUNT
        # Flits buffered here plus flits on a link toward here: grows
        # when a flit is sent or injected toward this router, shrinks
        # when one leaves it (landing moves a flit between the two).
        self.held = 0
        self.power_state = PowerState.ACTIVE
        self.idle_cycles = 0
        # Blocking-delay counters for the Delay congestion metric; only
        # maintained when track_blocking is set (it costs hot-loop work).
        self.track_blocking = False
        self.blocked_accum = 0
        self.moved_accum = 0
        # Round-robin pointers of the switch allocator (a scan offset)
        # and of the VC allocator.
        self._rr = 0
        self._vc_rr = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        out_port: int,
        downstream: "Router",
        route_row: Sequence[int],
    ) -> None:
        """Attach ``downstream`` behind output ``out_port``.

        ``route_row[dst]`` is the output port ``downstream`` takes
        toward ``dst`` (the look-ahead route a flit carries there).
        """
        self.neighbor_router[out_port] = downstream
        in_port = Port.OPPOSITE[out_port]
        self.links[out_port] = (
            downstream, downstream.ports[in_port].vcs, route_row
        )

    # ------------------------------------------------------------------
    # Congestion-metric views
    # ------------------------------------------------------------------
    def max_port_occupancy(self) -> int:
        """BFM input: max flit occupancy over all input ports.

        Written as a plain loop (not ``max`` over a generator): the BFM
        congestion metric polls this for every busy (node, subnet) pair
        every cycle, and the generator frame dominates at that rate.
        """
        best = 0
        for port in self.ports:
            occupancy = port.occupancy
            if occupancy > best:
                best = occupancy
        return best

    def mean_port_occupancy(self) -> float:
        """BFA input: mean flit occupancy over all input ports."""
        return sum(p.occupancy for p in self.ports) / Port.COUNT

    @property
    def buffered_flits(self) -> int:
        """Flits in this router's input buffers (a recount)."""
        return sum(port.occupancy for port in self.ports)

    @property
    def is_drained(self) -> bool:
        """No buffered flits and none in flight toward this router."""
        return self.held == 0
