"""Two-stage speculative virtual-channel router: state and wiring.

Models the paper's router microarchitecture (§2.1, §4.1): five ports
(four neighbours + local NI), input-buffered with credit-based VC flow
control, wormhole switching, look-ahead X-Y routing, and a separable
round-robin switch allocator.  The two pipeline stages plus one link
cycle give the 3-cycle per-hop latency used throughout.

A :class:`Router` holds its buffers, credits, allocation state and an
occupancy bitmask; the pipeline itself runs once per subnet in
:meth:`repro.noc.network.SubnetNetwork.step_routers`, for every router
of the subnet in one call.

Power-gating hooks: a router exposes a coarse power state
(ACTIVE/SLEEP/WAKEUP) managed by a gating controller; a non-active
router accepts no flits, and upstream routers issue look-ahead wakeup
requests when a head flit targets a sleeping next hop.
"""

from __future__ import annotations

from typing import Sequence

from repro.noc.buffers import InputPort, VirtualChannel
from repro.noc.topology import Port

__all__ = ["PowerState", "Router"]


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
        "mask",
        "credits",
        "out_owner",
        "neighbor_router",
        "neighbor_node",
        "down_channels",
        "upstream_credits",
        "vcs_per_port",
        "flits_per_vc",
        "buffered_flits",
        "expected_arrivals",
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
        self.channels = tuple(ch for port in self.ports for ch in port.vcs)
        self.mask = 0
        # credits[out_port][vc]: free downstream buffer slots.
        self.credits = [
            [flits_per_vc] * vcs_per_port for _ in range(Port.COUNT)
        ]
        # out_owner[out_port][vc]: output VC currently held by a packet.
        self.out_owner = [
            [False] * vcs_per_port for _ in range(Port.COUNT)
        ]
        # Downstream router object per output port (None at mesh edges
        # and for LOCAL, which ejects to the NI).
        self.neighbor_router: list[Router | None] = [None] * Port.COUNT
        self.neighbor_node: list[int] = [-1] * Port.COUNT
        # down_channels[out_port][vc]: the downstream input VC a flit
        # leaving on (out_port, vc) lands in (empty where no neighbour).
        self.down_channels: list[Sequence[VirtualChannel]] = (
            [()] * Port.COUNT
        )
        # upstream_credits[in_port]: the credits list of the sender that
        # feeds this input port (an upstream router's credits[out_port]
        # or the local NI's per-subnet credits); a departing flit from
        # VC ``vc`` returns its slot as ``upstream_credits[in_port][vc]
        # += 1``.
        self.upstream_credits: list[list[int] | None] = [None] * Port.COUNT
        self.buffered_flits = 0
        self.expected_arrivals = 0
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
        self, out_port: int, downstream: "Router", downstream_node: int
    ) -> None:
        """Attach ``downstream`` behind output ``out_port``."""
        self.neighbor_router[out_port] = downstream
        self.neighbor_node[out_port] = downstream_node
        in_port = Port.OPPOSITE[out_port]
        self.down_channels[out_port] = downstream.ports[in_port].vcs
        downstream.upstream_credits[in_port] = self.credits[out_port]

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

    def occupancy_by_port(self) -> tuple[int, ...]:
        """Flit occupancy of each input port, indexed by ``Port``.

        Telemetry samplers poll this for the per-router occupancy
        heatmap; it is a read-only snapshot with no hot-loop cost.
        """
        return tuple(p.occupancy for p in self.ports)

    @property
    def is_drained(self) -> bool:
        """No buffered flits and none in flight toward this router."""
        return self.buffered_flits == 0 and self.expected_arrivals == 0
